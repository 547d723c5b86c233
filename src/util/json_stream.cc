#include "src/util/json_stream.h"

#include <algorithm>
#include <limits>

namespace daydream {

JsonStreamTokenizer::JsonStreamTokenizer(std::istream& in) : JsonStreamTokenizer(in, Limits()) {}

JsonStreamTokenizer::JsonStreamTokenizer(std::istream& in, Limits limits)
    : in_{in.rdbuf()}, limits_(limits) {}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Fail(const std::string& message) {
  token_.kind = TokenKind::kError;
  token_.text = message;
  token_.boolean = false;
  return token_;
}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Emit(TokenKind kind, bool boolean) {
  max_buffered_ = std::max(max_buffered_, token_.text.size() + stack_.size());
  token_.kind = kind;
  token_.boolean = boolean;
  return token_;
}

// Reads `"key":` and emits the kKey token. The caller consumed the quote.
const JsonStreamTokenizer::Token& JsonStreamTokenizer::EmitKey() {
  std::string error;
  if (!LexJsonString(in_, limits_.max_string_bytes, &token_.text, &error)) {
    return Fail(error);
  }
  SkipJsonSpace(in_);
  if (in_.Get() != ':') {
    return Fail("expected ':' after key '" + token_.text + "'");
  }
  state_ = State::kValueStart;
  return Emit(TokenKind::kKey);
}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Next() {
  if (token_.kind == TokenKind::kError) {
    return token_;  // sticky
  }
  token_.text.clear();
  switch (state_) {
    case State::kAfterValue: {
      SkipJsonSpace(in_);
      if (stack_.empty()) {
        if (in_.Peek() >= 0) {
          return Fail("trailing characters after the document");
        }
        return Emit(TokenKind::kEnd);
      }
      const int c = in_.Get();
      if (c < 0) {
        return Fail("unexpected end of input");
      }
      if (stack_.back() == Context::kObject) {
        if (c == '}') {
          stack_.pop_back();
          return Emit(TokenKind::kEndObject);
        }
        if (c != ',') {
          return Fail("expected ',' or '}' in object");
        }
        SkipJsonSpace(in_);
        if (in_.Get() != '"') {
          return Fail("expected a string key");
        }
        return EmitKey();
      }
      if (c == ']') {
        stack_.pop_back();
        return Emit(TokenKind::kEndArray);
      }
      if (c != ',') {
        return Fail("expected ',' or ']' in array");
      }
      break;  // fall through to the next array element
    }
    case State::kObjectFirst: {
      SkipJsonSpace(in_);
      const int c = in_.Get();
      if (c == '}') {
        stack_.pop_back();
        state_ = State::kAfterValue;
        return Emit(TokenKind::kEndObject);
      }
      if (c != '"') {
        return Fail(c < 0 ? "unexpected end of input" : "expected a string key");
      }
      return EmitKey();
    }
    case State::kArrayFirst:
      SkipJsonSpace(in_);
      if (in_.Peek() == ']') {
        in_.Get();
        stack_.pop_back();
        state_ = State::kAfterValue;
        return Emit(TokenKind::kEndArray);
      }
      break;  // fall through to the first array element
    case State::kValueStart:
      break;
  }

  // A value starts here.
  SkipJsonSpace(in_);
  const int c = in_.Get();
  if (c < 0) {
    return Fail("unexpected end of input");
  }
  if (c == '{' || c == '[') {
    if (stack_.size() >= limits_.max_depth) {
      return Fail("nesting exceeds the depth limit");
    }
    const bool object = c == '{';
    stack_.push_back(object ? Context::kObject : Context::kArray);
    state_ = object ? State::kObjectFirst : State::kArrayFirst;
    return Emit(object ? TokenKind::kBeginObject : TokenKind::kBeginArray);
  }
  std::string error;
  if (!LexJsonScalar(in_, c, limits_.max_string_bytes, limits_.max_number_bytes, &scalar_,
                     &error)) {
    return Fail(error);
  }
  state_ = State::kAfterValue;
  switch (scalar_.kind) {
    case JsonValue::Kind::kString:
      token_.text.swap(scalar_.string);
      return Emit(TokenKind::kString);
    case JsonValue::Kind::kNumber:
      token_.text.swap(scalar_.raw);
      return Emit(TokenKind::kNumber);
    case JsonValue::Kind::kBool:
      token_.text = scalar_.boolean ? "true" : "false";
      return Emit(TokenKind::kBool, scalar_.boolean);
    case JsonValue::Kind::kNull:
      break;
  }
  return Emit(TokenKind::kNull);
}

std::optional<int64_t> ParseDecimalUsToNs(std::string_view token) {
  size_t i = 0;
  bool negative = false;
  if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
    negative = token[i] == '-';
    ++i;
  }
  const size_t digits_start = i;
  // Accumulate negatively (|INT64_MIN| > INT64_MAX) so both signs fit.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  int64_t value = 0;  // nanoseconds so far, non-positive
  auto push_digit = [&](char c) {
    const int digit = c - '0';
    if (value < (kMin + digit) / 10) {
      return false;
    }
    value = value * 10 - digit;
    return true;
  };
  while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
    if (!push_digit(token[i])) {
      return std::nullopt;
    }
    ++i;
  }
  if (i == digits_start) {
    return std::nullopt;  // no integer digits
  }
  int frac_digits = 0;
  if (i < token.size() && token[i] == '.') {
    ++i;
    const size_t frac_start = i;
    while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
      if (frac_digits < 3) {
        if (!push_digit(token[i])) {
          return std::nullopt;
        }
        ++frac_digits;
      } else if (token[i] != '0') {
        return std::nullopt;  // sub-nanosecond precision
      }
      ++i;
    }
    if (i == frac_start) {
      return std::nullopt;  // "1." with no digits
    }
  }
  if (i != token.size()) {
    return std::nullopt;  // exponent or trailing garbage
  }
  // Scale microseconds to nanoseconds: three fractional digits were already
  // folded in, pad the rest.
  for (; frac_digits < 3; ++frac_digits) {
    if (value < kMin / 10) {
      return std::nullopt;
    }
    value *= 10;
  }
  if (!negative) {
    if (value == kMin) {
      return std::nullopt;
    }
    value = -value;
  }
  return value;
}

}  // namespace daydream
