/**
 * @file
 * Implementation of the streaming JSON writer and the strict reader.
 */

#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace roboshape {
namespace obs {

namespace {

/**
 * Length of the well-formed UTF-8 sequence that starts at s[pos], or 0
 * when s[pos] starts none.  Follows Unicode Table 3-7: a stray
 * continuation byte, C0, C1 and F5..FF never lead; E0 and F0 exclude
 * overlong forms, ED excludes encoded surrogates, F4 stops at U+10FFFF,
 * and a sequence cut short by the end of @p s is ill-formed.
 */
std::size_t
utf8_sequence_length(std::string_view s, std::size_t pos)
{
    const auto byte = [&](std::size_t i) -> unsigned {
        return pos + i < s.size() ? static_cast<unsigned char>(s[pos + i])
                                  : 0u;
    };
    const unsigned lead = byte(0);
    if (lead < 0x80)
        return 1;
    std::size_t length = 0;
    unsigned low = 0x80; // bounds of the second byte
    unsigned high = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
        length = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
        length = 3;
        if (lead == 0xE0)
            low = 0xA0;
        else if (lead == 0xED)
            high = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
        length = 4;
        if (lead == 0xF0)
            low = 0x90;
        else if (lead == 0xF4)
            high = 0x8F;
    } else {
        return 0;
    }
    if (byte(1) < low || byte(1) > high)
        return 0;
    for (std::size_t i = 2; i < length; ++i)
        if (byte(i) < 0x80 || byte(i) > 0xBF)
            return 0;
    return length;
}

} // namespace

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (static_cast<unsigned char>(c) >= 0x80) {
            const std::size_t length = utf8_sequence_length(s, i);
            if (length == 0) {
                out += "\xEF\xBF\xBD"; // U+FFFD REPLACEMENT CHARACTER
            } else {
                out.append(s, i, length);
                i += length - 1;
            }
            continue;
        }
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::newline_indent()
{
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
}

void
JsonWriter::before_value()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (need_comma_)
        out_ += ',';
    if (depth_ > 0)
        newline_indent();
}

JsonWriter &
JsonWriter::begin_object()
{
    before_value();
    out_ += '{';
    ++depth_;
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::end_object()
{
    --depth_;
    if (need_comma_)
        newline_indent();
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::begin_array()
{
    before_value();
    out_ += '[';
    ++depth_;
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::end_array()
{
    --depth_;
    if (need_comma_)
        newline_indent();
    out_ += ']';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (need_comma_)
        out_ += ',';
    newline_indent();
    out_ += '"';
    out_ += json_escape(k);
    out_ += indent_ > 0 ? "\": " : "\":";
    need_comma_ = true;
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    before_value();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        return null();
    before_value();
    char buf[32];
    // Shortest representation that round-trips: try increasing precision.
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        double back = 0.0;
        // Round-trip probe of our own %g output, not input validation.
        std::sscanf(buf, "%lf", &back); // NOLINT(banned-raw-parse)
        if (back == v)
            break;
    }
    out_ += buf;
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    before_value();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out_ += buf;
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    before_value();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    before_value();
    out_ += v ? "true" : "false";
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    before_value();
    out_ += "null";
    need_comma_ = true;
    return *this;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

std::optional<std::string>
JsonValue::get_string(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (!v || !v->is_string())
        return std::nullopt;
    return v->as_string();
}

std::optional<std::uint64_t>
JsonValue::get_uint(std::string_view key, std::uint64_t min,
                    std::uint64_t max, bool &ok) const
{
    const JsonValue *v = find(key);
    if (!v)
        return std::nullopt;
    if (!v->is_number()) {
        ok = false;
        return std::nullopt;
    }
    const double d = v->as_number();
    if (!(d >= 0.0) || std::floor(d) != d || d > 1e18) {
        ok = false;
        return std::nullopt;
    }
    const std::uint64_t u = static_cast<std::uint64_t>(d);
    if (u < min || u > max) {
        ok = false;
        return std::nullopt;
    }
    return u;
}

/** Recursive-descent parser over one contiguous buffer. */
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    run()
    {
        JsonValue value;
        if (!parse_value(value, 0))
            return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing content after the document");
            return std::nullopt;
        }
        return value;
    }

  private:
    void
    fail(const char *why)
    {
        if (error_ && error_->empty())
            *error_ = std::string(why) + " at byte " + std::to_string(pos_);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parse_value(JsonValue &out, int depth)
    {
        if (depth > kMaxJsonDepth) {
            fail("nesting too deep");
            return false;
        }
        skip_ws();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (text_[pos_]) {
          case '{':
            return parse_object(out, depth);
          case '[':
            return parse_array(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::kString;
            return parse_string(out.string_);
          case 't':
            if (!literal("true")) {
                fail("invalid literal");
                return false;
            }
            out.kind_ = JsonValue::Kind::kBool;
            out.bool_ = true;
            return true;
          case 'f':
            if (!literal("false")) {
                fail("invalid literal");
                return false;
            }
            out.kind_ = JsonValue::Kind::kBool;
            out.bool_ = false;
            return true;
          case 'n':
            if (!literal("null")) {
                fail("invalid literal");
                return false;
            }
            out.kind_ = JsonValue::Kind::kNull;
            return true;
          default:
            return parse_number(out);
        }
    }

    bool
    parse_object(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parse_string(key))
                return false;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':'");
                return false;
            }
            ++pos_;
            JsonValue value;
            if (!parse_value(value, depth + 1))
                return false;
            out.object_.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}'");
            return false;
        }
    }

    bool
    parse_array(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::kArray;
        ++pos_; // '['
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue value;
            if (!parse_value(value, depth + 1))
                return false;
            out.array_.push_back(std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']'");
            return false;
        }
    }

    /** Appends one code point to @p out as UTF-8. */
    static void
    append_utf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parse_hex4(std::uint32_t &out)
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + static_cast<std::size_t>(i)];
            std::uint32_t digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<std::uint32_t>(c - 'A' + 10);
            else {
                fail("invalid \\u escape");
                return false;
            }
            out = out * 16 + digit;
        }
        pos_ += 4;
        return true;
    }

    bool
    parse_string(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            // Copy the run up to the next quote, escape or control byte
            // in one append, checking each non-ASCII sequence on the way.
            const std::size_t run = pos_;
            while (pos_ < text_.size()) {
                const unsigned char c =
                    static_cast<unsigned char>(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                if (c < 0x80) {
                    ++pos_;
                    continue;
                }
                const std::size_t length = utf8_sequence_length(text_, pos_);
                if (length == 0) {
                    fail("invalid UTF-8");
                    return false;
                }
                pos_ += length;
            }
            out.append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c != '\\') {
                fail("raw control character in string");
                return false;
            }
            if (++pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  std::uint32_t cp;
                  if (!parse_hex4(cp))
                      return false;
                  if (cp >= 0xD800 && cp <= 0xDBFF) {
                      // High surrogate: require a low-surrogate pair.
                      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                          text_[pos_ + 1] != 'u') {
                          fail("unpaired surrogate");
                          return false;
                      }
                      pos_ += 2;
                      std::uint32_t low;
                      if (!parse_hex4(low))
                          return false;
                      if (low < 0xDC00 || low > 0xDFFF) {
                          fail("unpaired surrogate");
                          return false;
                      }
                      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                      fail("unpaired surrogate");
                      return false;
                  }
                  append_utf8(out, cp);
                  break;
              }
              default:
                fail("invalid escape");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parse_number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const std::size_t digits_start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        if (pos_ == digits_start) {
            pos_ = start;
            fail("invalid value");
            return false;
        }
        // No leading zeros: "0" alone or "0.x" is fine, "01" is not.
        if (text_[digits_start] == '0' && pos_ - digits_start > 1) {
            pos_ = start;
            fail("leading zero");
            return false;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            const std::size_t frac = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            if (pos_ == frac) {
                fail("digits required after '.'");
                return false;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            const std::size_t exp = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            if (pos_ == exp) {
                fail("digits required in exponent");
                return false;
            }
        }
        const std::string token(text_.substr(start, pos_ - start));
        out.kind_ = JsonValue::Kind::kNumber;
        // The grammar loop above already validated every byte of the
        // token (RFC 8259 number syntax); strtod only converts it.
        out.number_ =
            std::strtod(token.c_str(), nullptr); // NOLINT(banned-raw-parse)
        if (!std::isfinite(out.number_)) {
            fail("number out of range");
            return false;
        }
        return true;
    }

    std::string_view text_;
    std::string *error_ = nullptr;
    std::size_t pos_ = 0;
};

std::optional<JsonValue>
parse_json(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    return JsonParser(text, error).run();
}

bool
validate_json(std::string_view text, std::string *error)
{
    return parse_json(text, error).has_value();
}

} // namespace obs
} // namespace roboshape
