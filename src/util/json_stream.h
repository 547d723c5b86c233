// Streaming JSON tokenizer for trace import.
//
// The flat-object parser in src/util/json.h reads one-line records; Chrome
// trace files are multi-megabyte *nested* documents (an array of event
// objects, each with an `args` object) that must not be materialized whole.
// This tokenizer holds the nested grammar and pulls one token at a time
// straight off a std::istream, lexing each key and scalar with the lexer
// json.h defines (the same string, number and literal rules as the flat
// parser). The only buffered state is the current token's text plus a depth
// stack, both hard-capped by Limits, so peak resident memory is bounded no
// matter how large the file is.
//
// Grammar checking is strict (commas, colons, nesting, one top-level value,
// no trailing garbage); anything malformed — truncated input, bad escapes,
// absurd nesting depth, oversized strings — surfaces as a kError token with
// a message and the byte offset, never a crash. Number tokens keep their raw
// text so callers can decode int64-exact values (nanosecond timestamps,
// correlation ids past 2^53) without a lossy double round trip.
#ifndef SRC_UTIL_JSON_STREAM_H_
#define SRC_UTIL_JSON_STREAM_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json.h"

namespace daydream {

class JsonStreamTokenizer {
 public:
  enum class TokenKind {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,     // object member key; the member's value tokens follow
    kString,  // decoded string value
    kNumber,  // raw source token in `text` (validated as a JSON number)
    kBool,
    kNull,
    kEnd,    // whole document consumed cleanly
    kError,  // sticky; `text` holds the message, offset() the position
  };

  struct Token {
    TokenKind kind = TokenKind::kEnd;
    std::string text;
    bool boolean = false;
  };

  // Caps on the transient per-token state. Exceeding one is a parse error,
  // not an allocation: hostile input cannot make the tokenizer grow.
  struct Limits {
    size_t max_string_bytes = 1 << 20;  // one decoded string/key
    size_t max_number_bytes = 64;       // one number token
    size_t max_depth = 32;              // nested containers
  };

  explicit JsonStreamTokenizer(std::istream& in);
  JsonStreamTokenizer(std::istream& in, Limits limits);

  // Advances to and returns the next token. After kEnd or kError every
  // further call returns the same token.
  const Token& Next();
  const Token& token() const { return token_; }

  // Bytes consumed from the stream so far (error positions).
  uint64_t offset() const { return in_.offset; }

  // High-water mark of the transient buffer (token text + depth stack), the
  // quantity the bounded-memory tests assert on.
  size_t max_buffered_bytes() const { return max_buffered_; }

 private:
  enum class Context : uint8_t { kObject, kArray };
  enum class State : uint8_t {
    kValueStart,   // a value must start here
    kObjectFirst,  // just after '{': first key or '}'
    kArrayFirst,   // just after '[': first value or ']'
    kAfterValue,   // a value closed: separator, container close, or kEnd
  };

  const Token& Fail(const std::string& message);
  const Token& Emit(TokenKind kind, bool boolean = false);  // token_.text already set
  const Token& EmitKey();  // after the key's opening quote was consumed

  JsonStreamSource in_;
  const Limits limits_;
  Token token_;
  JsonValue scalar_;  // the lexer's output; its buffers are swapped into token_
  std::vector<Context> stack_;  // innermost last; empty once the value closed
  State state_ = State::kValueStart;
  size_t max_buffered_ = 0;
};

// Exact Chrome-timestamp decode: microseconds written as a plain decimal
// ("1.500", "-3.25", "1234") to integer nanoseconds, by integer arithmetic on
// the digits — no double in the path, so values far past 2^53 ns stay exact.
// More than three fractional digits are accepted only when the extras are
// zeros (sub-nanosecond precision cannot be represented). Returns nullopt on
// exponents, garbage, or int64 overflow.
std::optional<int64_t> ParseDecimalUsToNs(std::string_view token);

}  // namespace daydream

#endif  // SRC_UTIL_JSON_STREAM_H_
