#include "src/util/json.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/util/string_util.h"

namespace daydream {

std::optional<int64_t> JsonValue::AsInt64() const {
  if (kind != Kind::kNumber) {
    return std::nullopt;
  }
  // `raw` holds the verbatim source token; ParseInt64 accepts exactly the
  // integer subset ([+-]?digits) and range-checks, so "1e3", "1.0" and
  // 20-digit overflows all return nullopt instead of a rounded double.
  return ParseInt64(raw);
}

const JsonValue* JsonObject::Find(const std::string& key) const {
  auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

std::string JsonObject::GetString(const std::string& key, const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kString) ? value->string : fallback;
}

double JsonObject::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kNumber) ? value->number : fallback;
}

bool JsonObject::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kBool) ? value->boolean : fallback;
}

int64_t JsonObject::GetInt64(const std::string& key, int64_t fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  return value->AsInt64().value_or(fallback);
}

namespace {

bool LexFail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

bool IsDigit(int c) { return c >= '0' && c <= '9'; }

int HexDigit(int c) {
  if (IsDigit(c)) {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

// Encodes a BMP code point (surrogates pass through as-is: the protocol
// never carries them, and replacing them would silently corrupt an echo).
void AppendUtf8(std::string* out, unsigned code) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

template <typename Source>
bool LexNumber(Source& in, int first, size_t max_bytes, JsonValue* value, std::string* error) {
  std::string& raw = value->raw;
  raw.assign(1, static_cast<char>(first));
  for (int c = in.Peek(); IsDigit(c) || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E';
       c = in.Peek()) {
    if (raw.size() >= max_bytes) {
      return LexFail(error, "number exceeds the size limit");
    }
    raw.push_back(static_cast<char>(in.Get()));
  }
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end != raw.c_str() + raw.size() || !std::isfinite(parsed)) {
    return LexFail(error, "invalid number '" + raw + "'");
  }
  value->kind = JsonValue::Kind::kNumber;
  value->number = parsed;
  return true;
}

// The rest of a literal whose first byte was consumed.
template <typename Source>
bool LexWord(Source& in, std::string_view rest, std::string* error) {
  for (const char c : rest) {
    if (in.Get() != c) {
      return LexFail(error, "expected a value");
    }
  }
  return true;
}

}  // namespace

template <typename Source>
bool LexJsonString(Source& in, size_t max_bytes, std::string* out, std::string* error) {
  out->clear();
  while (true) {
    const int c = in.Get();
    if (c == '"') {
      return true;
    }
    if (c < 0) {
      return LexFail(error, "unterminated string");
    }
    if (c < 0x20) {
      return LexFail(error, "unescaped control character in string");
    }
    if (out->size() >= max_bytes) {
      return LexFail(error, "string exceeds the size limit");
    }
    if (c != '\\') {
      out->push_back(static_cast<char>(c));
      continue;
    }
    const int esc = in.Get();
    switch (esc) {
      case '"':
      case '\\':
      case '/': out->push_back(static_cast<char>(esc)); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int h = in.Get();
          const int digit = HexDigit(h);
          if (digit < 0) {
            return LexFail(error, h < 0 ? "truncated \\u escape" : "invalid \\u escape");
          }
          code = code << 4 | static_cast<unsigned>(digit);
        }
        AppendUtf8(out, code);
        break;
      }
      case -1:
        return LexFail(error, "truncated escape sequence");
      default:
        return LexFail(error, std::string("invalid escape '\\") + static_cast<char>(esc) + "'");
    }
  }
}

template <typename Source>
bool LexJsonScalar(Source& in, int first, size_t max_string_bytes, size_t max_number_bytes,
                   JsonValue* value, std::string* error) {
  switch (first) {
    case '"':
      value->kind = JsonValue::Kind::kString;
      return LexJsonString(in, max_string_bytes, &value->string, error);
    case 't':
    case 'f':
      value->kind = JsonValue::Kind::kBool;
      value->boolean = first == 't';
      return LexWord(in, value->boolean ? "rue" : "alse", error);
    case 'n':
      value->kind = JsonValue::Kind::kNull;
      return LexWord(in, "ull", error);
    default:
      if (first == '-' || IsDigit(first)) {
        return LexNumber(in, first, max_number_bytes, value, error);
      }
      return LexFail(error, "expected a value");
  }
}

template bool LexJsonString(JsonTextSource&, size_t, std::string*, std::string*);
template bool LexJsonString(JsonStreamSource&, size_t, std::string*, std::string*);
template bool LexJsonScalar(JsonTextSource&, int, size_t, size_t, JsonValue*, std::string*);
template bool LexJsonScalar(JsonStreamSource&, int, size_t, size_t, JsonValue*, std::string*);

namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

// Recursive-descent over the flat subset. Errors set *error once (first
// failure wins).
class Parser {
 public:
  Parser(std::string_view text, std::string* error) : in_{text}, error_(error) {}

  std::optional<JsonObject> ParseObject() {
    SkipJsonSpace(in_);
    if (!Consume('{')) {
      return Fail("expected '{'");
    }
    JsonObject object;
    SkipJsonSpace(in_);
    if (Consume('}')) {
      return FinishAt(object);
    }
    while (true) {
      SkipJsonSpace(in_);
      if (!Consume('"')) {
        return Fail("expected '\"'");
      }
      std::string key;
      if (!LexJsonString(in_, kNoLimit, &key, error_)) {
        return std::nullopt;
      }
      if (object.Has(key)) {
        return Fail("duplicate key '" + key + "'");
      }
      SkipJsonSpace(in_);
      if (!Consume(':')) {
        return Fail("expected ':' after key '" + key + "'");
      }
      SkipJsonSpace(in_);
      JsonValue value;
      if (!ParseValue(&value)) {
        return std::nullopt;
      }
      object.Set(std::move(key), std::move(value));
      SkipJsonSpace(in_);
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return FinishAt(object);
      }
      return Fail("expected ',' or '}' in object");
    }
  }

 private:
  std::optional<JsonObject> FinishAt(JsonObject& object) {
    SkipJsonSpace(in_);
    if (in_.Peek() >= 0) {
      return Fail("trailing characters after the object");
    }
    return std::move(object);
  }

  std::optional<JsonObject> Fail(const std::string& message) {
    if (error_->empty()) {
      *error_ = message;
    }
    return std::nullopt;
  }

  bool Consume(char c) {
    if (in_.Peek() != c) {
      return false;
    }
    in_.Get();
    return true;
  }

  bool ParseValue(JsonValue* value) {
    const int c = in_.Get();
    if (c < 0) {
      Fail("unexpected end of input");
      return false;
    }
    if (c == '{' || c == '[') {
      Fail("nested containers are not part of the flat request protocol");
      return false;
    }
    return LexJsonScalar(in_, c, kNoLimit, kNoLimit, value, error_);
  }

  JsonTextSource in_;
  std::string* error_;
};

}  // namespace

std::optional<JsonObject> ParseJsonObject(std::string_view text, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  return parser.ParseObject();
}

}  // namespace daydream
