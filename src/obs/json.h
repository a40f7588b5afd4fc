/**
 * @file
 * Minimal streaming JSON writer and the repo's one strict JSON reader.
 *
 * Every machine-readable artifact the repo emits — Chrome trace files,
 * RunReports, the bench gate JSON — used to be hand-rolled printf strings
 * with per-bench escaping bugs waiting to happen.  JsonWriter centralizes
 * the escaping and the comma bookkeeping while keeping the output
 * deterministic: fields appear exactly in the order they are written, so
 * golden-file tests can compare byte-for-byte.  The writer emits
 * well-formed UTF-8 only: json_escape() replaces each byte that does not
 * start a well-formed sequence with U+FFFD (EF BF BD) and resumes at the
 * next byte, so text echoed from a client cannot corrupt a response.
 * Well-formed text passes through byte-identical.
 *
 * parse_json() reads one document into a small DOM.  It is the daemon's
 * request-body reader (docs/SERVICE.md), and validate_json() is a thin
 * wrapper over it, so every check of an emitted artifact applies the
 * rules the daemon applies to its requests.  The policy (RFC 8259):
 *
 *  - no comments, trailing commas, NaN or Infinity;
 *  - nesting capped by kMaxJsonDepth (65 levels pass, 66 fail);
 *  - \uXXXX escapes decode to UTF-8 and surrogate escapes must pair;
 *  - strings must be well-formed UTF-8 (Unicode Table 3-7: no overlongs,
 *    no encoded surrogates, nothing above U+10FFFF, no truncated
 *    sequence);
 *  - numbers must be finite as doubles;
 *  - duplicate object keys keep every member; lookups see the first.
 *
 * A failure's text names the problem and where: "leading zero at byte 6".
 */

#ifndef ROBOSHAPE_OBS_JSON_H
#define ROBOSHAPE_OBS_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roboshape {
namespace obs {

/** Escapes @p s for inclusion inside a JSON string (no quotes added). */
std::string json_escape(std::string_view s);

/**
 * Streaming writer.  Usage:
 *
 *     JsonWriter w;
 *     w.begin_object();
 *     w.key("name").value("iiwa");
 *     w.key("cycles").value(std::int64_t{893});
 *     w.key("knobs").begin_array();
 *     w.value(7.0);
 *     w.end_array();
 *     w.end_object();
 *     std::string out = w.str();
 *
 * Doubles are emitted with up to 17 significant digits (round-trip exact)
 * but trimmed of trailing zeros; NaN/Inf (not representable in JSON)
 * become null.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(int indent = 0) : indent_(indent) {}

    JsonWriter &begin_object();
    JsonWriter &end_object();
    JsonWriter &begin_array();
    JsonWriter &end_array();

    /** Writes an object key; must be followed by exactly one value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** Shorthand: key + scalar value. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    const std::string &str() const { return out_; }

  private:
    void before_value();
    void newline_indent();

    std::string out_;
    int indent_ = 0;
    int depth_ = 0;
    bool need_comma_ = false;
    bool after_key_ = false;
};

/** Nesting depth cap for parsed documents. */
inline constexpr int kMaxJsonDepth = 64;

class JsonValue
{
  public:
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_bool() const { return kind_ == Kind::kBool; }
    bool is_number() const { return kind_ == Kind::kNumber; }
    bool is_string() const { return kind_ == Kind::kString; }
    bool is_array() const { return kind_ == Kind::kArray; }
    bool is_object() const { return kind_ == Kind::kObject; }

    bool as_bool() const { return bool_; }
    double as_number() const { return number_; }
    const std::string &as_string() const { return string_; }
    const std::vector<JsonValue> &as_array() const { return array_; }
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return object_;
    }

    /** Object member by key (first occurrence); null when absent. */
    const JsonValue *find(std::string_view key) const;

    /** Member @p key as a string; nullopt when absent or not a string. */
    std::optional<std::string> get_string(std::string_view key) const;

    /**
     * Member @p key as an unsigned integer in [@p min, @p max]; nullopt
     * when absent.  @p ok is cleared when the member exists but is not an
     * integral number in range — callers distinguish "absent" (fine for
     * optional knobs) from "present but malformed" (a 400).
     */
    std::optional<std::uint64_t> get_uint(std::string_view key,
                                          std::uint64_t min,
                                          std::uint64_t max,
                                          bool &ok) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/**
 * Parses @p text as exactly one JSON document.  Nullopt on any syntax
 * error; @p error (when non-null) receives a short description with a
 * byte offset.
 */
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string *error = nullptr);

/**
 * True when parse_json() accepts @p text; on failure @p error (when
 * non-null) receives the parser's description.
 */
bool validate_json(std::string_view text, std::string *error = nullptr);

} // namespace obs
} // namespace roboshape

#endif // ROBOSHAPE_OBS_JSON_H
