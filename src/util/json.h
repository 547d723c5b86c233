// JSON for the service protocol and the trace importers: one lexer under
// two grammars.
//
// ParseJsonObject reads one *flat* JSON object — string / number / boolean /
// null values only, no nested containers. `daydream serve` speaks it (every
// request is one such line, docs/serve.md) and the CUPTI importer reads its
// records with it. The restriction keeps the parser small enough to audit
// against hostile input (the daemon reads untrusted bytes off a socket);
// responses, which we only ever *write*, are free to nest. Anything outside
// the subset — nesting, duplicate keys, trailing garbage, bad escapes,
// unterminated strings — is a parse error with a message naming the
// offending construct, never a crash or a silently-misread request. Nested
// documents stream through JsonStreamTokenizer (json_stream.h) instead.
//
// Both grammars lex every key and scalar through LexJsonString and
// LexJsonScalar below, each over its own byte source. The lexical rules:
//   - Strings decode the JSON escapes (\" \\ \/ \b \f \n \r \t \uXXXX);
//     \uXXXX is written as UTF-8 for the BMP, surrogate halves passing
//     through as-is. A raw byte below 0x20 is an error.
//   - A value starting with '-' or a digit is a number: the run of
//     [0-9.eE+-] that follows must be a decimal std::strtod accepts whole
//     ("-0", "01", "1." and "-.5" read; "+1", ".5" and "1.2.3" do not), and
//     its value must be finite: "1e999" is an error, while underflow
//     ("1e-400") reads as zero or a denormal. The raw token is kept so ids
//     past 2^53 decode exactly (JsonValue::AsInt64).
//   - The literals are true, false and null; any other byte where a value
//     must start is "expected a value".
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>

namespace daydream {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  // The untouched source token for numbers, so an echoed field (e.g. a
  // request id of 7) round-trips as "7", not "7.000000".
  std::string raw;

  // Exact integer decode from the preserved source token. `number` is a
  // double, which silently rounds int64 values past 2^53 — precisely the
  // range of nanosecond timestamps and CUPTI correlation ids the importers
  // carry. Returns nullopt unless the token is a plain decimal integer
  // (no fraction, no exponent) that fits int64.
  std::optional<int64_t> AsInt64() const;
};

class JsonObject {
 public:
  bool Has(const std::string& key) const { return fields_.count(key) != 0; }
  const JsonValue* Find(const std::string& key) const;

  // Typed getters with fallbacks; a present-but-differently-typed field
  // returns the fallback (callers that must distinguish use Find).
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  // Exact int64 getter (see JsonValue::AsInt64): the fallback also covers
  // present-but-fractional ("1.5") and out-of-range tokens.
  int64_t GetInt64(const std::string& key, int64_t fallback = 0) const;

  const std::map<std::string, JsonValue>& fields() const { return fields_; }

  void Set(std::string key, JsonValue value) { fields_[std::move(key)] = std::move(value); }

 private:
  std::map<std::string, JsonValue> fields_;
};

// Parses one flat JSON object. Returns nullopt and sets *error (when given)
// on anything outside the subset described above.
std::optional<JsonObject> ParseJsonObject(std::string_view text, std::string* error = nullptr);

// The lexer's byte sources. Peek() returns the next byte (0-255), or -1 at
// the end, without consuming it; Get() consumes it.
struct JsonTextSource {
  std::string_view text;
  size_t pos = 0;
  int Peek() const { return pos < text.size() ? static_cast<unsigned char>(text[pos]) : -1; }
  int Get() { return pos < text.size() ? static_cast<unsigned char>(text[pos++]) : -1; }
};

struct JsonStreamSource {
  std::streambuf* buf = nullptr;
  uint64_t offset = 0;  // bytes consumed so far
  int Peek() {
    const int c = buf != nullptr ? buf->sgetc() : -1;
    return c == std::char_traits<char>::eof() ? -1 : c;
  }
  int Get() {
    const int c = buf != nullptr ? buf->sbumpc() : -1;
    if (c == std::char_traits<char>::eof()) {
      return -1;
    }
    ++offset;
    return c;
  }
};

template <typename Source>
void SkipJsonSpace(Source& in) {
  for (int c = in.Peek(); c == ' ' || c == '\t' || c == '\n' || c == '\r'; c = in.Peek()) {
    in.Get();
  }
}

// Decodes a string's remainder, after its opening quote, into *out (at most
// `max_bytes` decoded bytes). On failure returns false with *error set.
template <typename Source>
bool LexJsonString(Source& in, size_t max_bytes, std::string* out, std::string* error);

// Lexes the scalar value whose first byte, `first`, the caller consumed
// (containers are the grammar's business). Sets value->kind and then
// value->string, value->raw + value->number, or value->boolean. Strings and
// number tokens are capped at the given sizes. On failure returns false
// with *error set.
template <typename Source>
bool LexJsonScalar(Source& in, int first, size_t max_string_bytes, size_t max_number_bytes,
                   JsonValue* value, std::string* error);

}  // namespace daydream

#endif  // SRC_UTIL_JSON_H_
