/**
 * @file
 * Implementation of the minimal XML parser.
 */

#include "topology/xml.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

namespace roboshape {
namespace topology {

XmlError::XmlError(ParseErrorCode code, const std::string &msg,
                   SourceLocation location, std::string snippet)
    : std::runtime_error(msg + " (" + location.to_string() + ")"),
      code_(code),
      location_(location),
      snippet_(std::move(snippet))
{
}

const XmlAttribute *
XmlElement::find_attribute(std::string_view key) const
{
    for (const XmlAttribute &a : attributes_)
        if (a.name == key)
            return &a;
    return nullptr;
}

std::string_view
XmlElement::attribute(std::string_view key, std::string_view fallback) const
{
    const XmlAttribute *a = find_attribute(key);
    return a ? a->value : fallback;
}

const XmlElement *
XmlElement::child(std::string_view tag) const
{
    for (const XmlElement *c : children_)
        if (c->name_ == tag)
            return c;
    return nullptr;
}

std::vector<const XmlElement *>
XmlElement::children_named(std::string_view tag) const
{
    std::vector<const XmlElement *> out;
    for (const XmlElement *c : children_)
        if (c->name_ == tag)
            out.push_back(c);
    return out;
}

namespace {

/** std::isspace in the C locale. */
bool
is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/** std::isalnum in the C locale, plus the four name punctuators. */
bool
is_name_char(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
           c == ':';
}

/** The whitespace that element text is trimmed of. */
constexpr std::string_view kTrimmed = " \t\r\n";

/** The expansion of one entity: at most four UTF-8 bytes. */
struct Decoded
{
    char bytes[4];
    std::size_t size = 0;
};

/** Encodes @p cp (a validated Unicode scalar) as UTF-8. */
Decoded
utf8(unsigned long cp)
{
    Decoded d;
    const auto put = [&d](unsigned long byte) {
        d.bytes[d.size++] = static_cast<char>(byte);
    };
    if (cp < 0x80) {
        put(cp);
    } else if (cp < 0x800) {
        put(0xC0 | (cp >> 6));
        put(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        put(0xE0 | (cp >> 12));
        put(0x80 | ((cp >> 6) & 0x3F));
        put(0x80 | (cp & 0x3F));
    } else {
        put(0xF0 | (cp >> 18));
        put(0x80 | ((cp >> 12) & 0x3F));
        put(0x80 | ((cp >> 6) & 0x3F));
        put(0x80 | (cp & 0x3F));
    }
    return d;
}

} // namespace

/**
 * One parse of one document.  A cursor over the document's source copy
 * fills the document's flat arrays; element indices, not pointers, name
 * elements until link() fixes every span once the arrays stop growing.
 */
class XmlParser
{
  public:
    /** The document of @p input. @throws XmlError on malformed input. */
    static XmlDocument
    parse(std::string_view input)
    {
        XmlDocument doc;
        XmlParser(doc, input).run();
        return doc;
    }

  private:
    XmlParser(XmlDocument &doc, std::string_view input) : doc_(doc)
    {
        // Source copy, then an arena as long: decoded values and trimmed
        // text are never longer than the source bytes they come from.
        doc.size_ = input.size();
        doc.buffer_.reset(new char[2 * input.size()]);
        if (!input.empty())
            std::memcpy(doc.buffer_.get(), input.data(), input.size());
        s_ = doc.buffer_.get();
        size_ = input.size();
        arena_ = doc.buffer_.get() + size_;
    }

    void
    run()
    {
        for (;;) {
            skip_whitespace();
            if (eof())
                throw fail(ParseErrorCode::kXmlNoRootElement,
                           "no root element");
            if (starts_with("<?")) {
                skip_past("?>", "declaration");
                continue;
            }
            if (starts_with("<!--")) {
                skip_past("-->", "comment");
                continue;
            }
            if (starts_with("<!")) {
                skip_doctype();
                continue;
            }
            break;
        }
        parse_element(1, kNoParent);
        skip_whitespace();
        while (!eof() && starts_with("<!--")) {
            skip_past("-->", "comment");
            skip_whitespace();
        }
        if (!eof())
            throw fail(ParseErrorCode::kXmlTrailingContent,
                       "trailing content after root element");
        link();
    }

    static constexpr std::size_t kNoParent =
        std::numeric_limits<std::size_t>::max();

    /** What link() needs of an element that the element does not keep. */
    struct Pending
    {
        std::size_t parent;
        std::size_t first_attribute;
    };

    std::string_view source() const { return {s_, size_}; }
    bool eof() const { return pos_ >= size_; }
    char peek() const { return eof() ? '\0' : s_[pos_]; }
    char get() { return eof() ? '\0' : s_[pos_++]; }

    bool
    starts_with(std::string_view prefix) const
    {
        return source().substr(pos_, prefix.size()) == prefix;
    }

    void advance(std::size_t n) { pos_ = std::min(pos_ + n, size_); }

    void
    skip_whitespace()
    {
        while (!eof() && is_space(s_[pos_]))
            ++pos_;
    }

    /** Skips to just past the next occurrence of @p needle. */
    void
    skip_past(std::string_view needle, const char *what)
    {
        const std::size_t found = source().find(needle, pos_);
        if (found == std::string_view::npos)
            throw fail(ParseErrorCode::kXmlUnterminated,
                       std::string("unterminated ") + what);
        pos_ = found + needle.size();
    }

    /** A typed error at the cursor, with its line:column and snippet. */
    XmlError
    fail(ParseErrorCode code, const std::string &msg) const
    {
        return fail_at(code, msg, pos_);
    }

    XmlError
    fail_at(ParseErrorCode code, const std::string &msg,
            std::size_t offset) const
    {
        const SourceLocation at = locate(source(), offset);
        return XmlError(code, msg, at, source_snippet(source(), at));
    }

    std::string_view
    name_of(std::size_t el) const
    {
        return doc_.elements_[el].name_;
    }

    /** Copies @p text into the arena and returns the stable copy. */
    std::string_view
    store(std::string_view text)
    {
        assert(arena_ + text.size() <= s_ + 2 * size_);
        std::memcpy(arena_, text.data(), text.size());
        const std::string_view copy(arena_, text.size());
        arena_ += text.size();
        return copy;
    }

    /**
     * Consumes one entity ("&...;", the cursor on '&') and returns its
     * expansion.  Supports the five predefined entities and decimal/hex
     * character references.
     */
    Decoded
    parse_entity()
    {
        const std::size_t start = pos_;
        constexpr std::size_t kMaxEntityLen = 16;
        std::size_t i = start + 1;
        for (;;) {
            if (i >= size_)
                throw fail_at(ParseErrorCode::kXmlBadEntity,
                              "unterminated entity", start);
            if (s_[i++] == ';')
                break;
            if (i - (start + 1) > kMaxEntityLen)
                throw fail_at(ParseErrorCode::kXmlBadEntity,
                              "entity name too long", start);
        }
        pos_ = i;
        const std::string_view ent(s_ + start + 1, i - start - 2);
        const auto bad = [&](const char *what) {
            return fail_at(ParseErrorCode::kXmlBadEntity,
                           what + std::string(ent) + ";", start);
        };
        if (ent == "lt")
            return utf8('<');
        if (ent == "gt")
            return utf8('>');
        if (ent == "amp")
            return utf8('&');
        if (ent == "quot")
            return utf8('"');
        if (ent == "apos")
            return utf8('\'');
        if (ent.empty() || ent[0] != '#')
            throw bad("unknown entity &");
        std::size_t k = 1;
        unsigned long base = 10;
        if (k < ent.size() && (ent[k] == 'x' || ent[k] == 'X')) {
            base = 16;
            ++k;
        }
        if (k >= ent.size())
            throw bad("empty character reference &");
        unsigned long cp = 0;
        for (; k < ent.size(); ++k) {
            const char d = ent[k];
            unsigned long digit;
            if (d >= '0' && d <= '9')
                digit = static_cast<unsigned long>(d - '0');
            else if (base == 16 && d >= 'a' && d <= 'f')
                digit = static_cast<unsigned long>(d - 'a' + 10);
            else if (base == 16 && d >= 'A' && d <= 'F')
                digit = static_cast<unsigned long>(d - 'A' + 10);
            else
                throw bad("malformed character reference &");
            cp = cp * base + digit;
            if (cp > 0x10FFFF)
                throw bad("character reference out of range &");
        }
        if (cp == 0 || (cp >= 0xD800 && cp <= 0xDFFF))
            throw bad("invalid character reference &");
        return utf8(cp);
    }

    std::string_view
    parse_name()
    {
        const std::size_t start = pos_;
        while (!eof() && is_name_char(s_[pos_]))
            ++pos_;
        if (pos_ == start)
            throw fail_at(ParseErrorCode::kXmlExpectedName, "expected name",
                          start);
        return source().substr(start, pos_ - start);
    }

    /**
     * An attribute value after its opening @p quote.  Without entities it
     * is a view of the source; with them it is decoded into the arena.
     */
    std::string_view
    parse_value(char quote)
    {
        const std::size_t start = pos_;
        const char *begin = s_ + pos_;
        const char *close = static_cast<const char *>(
            std::memchr(begin, quote, size_ - pos_));
        const std::size_t plain =
            close ? static_cast<std::size_t>(close - begin) : size_ - pos_;
        if (!std::memchr(begin, '&', plain)) {
            pos_ += plain;
            if (eof())
                throw fail_at(ParseErrorCode::kXmlUnterminated,
                              "unterminated attribute value", start);
            ++pos_; // closing quote
            return {begin, plain};
        }
        // An entity may swallow the quote, so decode as the text reads.
        char *const out = arena_;
        while (!eof() && peek() != quote) {
            if (peek() == '&') {
                const Decoded d = parse_entity();
                std::memcpy(arena_, d.bytes, d.size);
                arena_ += d.size;
            } else {
                *arena_++ = get();
            }
        }
        if (eof())
            throw fail_at(ParseErrorCode::kXmlUnterminated,
                          "unterminated attribute value", start);
        ++pos_; // closing quote
        return {out, static_cast<std::size_t>(arena_ - out)};
    }

    /**
     * True when @p key repeats an attribute of the element whose first
     * attribute is @p first.  A short scan for narrow elements; a hash set
     * keeps wide ones linear.
     */
    bool
    is_duplicate(std::size_t first, std::string_view key)
    {
        const std::vector<XmlAttribute> &attrs = doc_.attributes_;
        constexpr std::size_t kScanned = 8;
        const std::size_t count = attrs.size() - first;
        if (count < kScanned) {
            for (std::size_t i = first; i < attrs.size(); ++i)
                if (attrs[i].name == key)
                    return true;
            return false;
        }
        if (count == kScanned) {
            seen_.clear();
            for (std::size_t i = first; i < attrs.size(); ++i)
                seen_.insert(attrs[i].name);
        }
        return !seen_.insert(key).second;
    }

    void
    parse_attributes(std::size_t el)
    {
        const std::size_t first = doc_.attributes_.size();
        for (;;) {
            skip_whitespace();
            const char p = peek();
            if (p == '>' || p == '/' || p == '?' || eof())
                return;
            const std::size_t key_at = pos_;
            const std::string_view key = parse_name();
            skip_whitespace();
            if (get() != '=')
                throw fail(ParseErrorCode::kXmlBadAttributeSyntax,
                           "expected '=' after attribute name '" +
                               std::string(key) + "'");
            skip_whitespace();
            const char quote = get();
            if (quote != '"' && quote != '\'')
                throw fail(ParseErrorCode::kXmlBadAttributeSyntax,
                           "expected quoted value for attribute '" +
                               std::string(key) + "'");
            const std::string_view value = parse_value(quote);
            if (is_duplicate(first, key))
                throw fail_at(ParseErrorCode::kXmlDuplicateAttribute,
                              "duplicate attribute '" + std::string(key) +
                                  "' on <" + std::string(name_of(el)) + ">",
                              key_at);
            doc_.attributes_.push_back({key, value});
        }
    }

    /** Parses children and text up to the close tag of element @p el. */
    void
    parse_content(std::size_t el, std::size_t depth)
    {
        // The element's text accumulates on top of text_, above its
        // ancestors' and below its children's, which pop their own.
        const std::size_t text_start = text_.size();
        for (;;) {
            if (eof())
                throw fail(ParseErrorCode::kXmlUnterminated,
                           "unexpected end of input inside <" +
                               std::string(name_of(el)) + ">");
            if (s_[pos_] == '&') {
                const Decoded d = parse_entity();
                text_.append(d.bytes, d.size);
                continue;
            }
            if (s_[pos_] != '<') {
                std::size_t end = pos_;
                while (end < size_ && s_[end] != '<' && s_[end] != '&')
                    ++end;
                std::string_view run = source().substr(pos_, end - pos_);
                pos_ = end;
                if (text_.size() == text_start) // trimmed away anyway
                    run.remove_prefix(
                        std::min(run.find_first_not_of(kTrimmed), run.size()));
                text_.append(run);
                continue;
            }
            if (starts_with("<!--")) {
                skip_past("-->", "comment");
                continue;
            }
            if (starts_with("<![CDATA[")) {
                // Raw character data: no entity decoding, no markup.
                const std::size_t start = pos_;
                const std::size_t close = source().find("]]>", pos_ + 9);
                if (close == std::string_view::npos)
                    throw fail_at(ParseErrorCode::kXmlUnterminated,
                                  "unterminated CDATA section", start);
                text_.append(source().substr(pos_ + 9, close - pos_ - 9));
                pos_ = close + 3;
                continue;
            }
            if (starts_with("</")) {
                advance(2);
                const std::size_t close_at = pos_;
                const std::string_view close = parse_name();
                if (close != name_of(el))
                    throw fail_at(ParseErrorCode::kXmlMismatchedTag,
                                  "mismatched close tag </" +
                                      std::string(close) + "> for <" +
                                      std::string(name_of(el)) + ">",
                                  close_at);
                skip_whitespace();
                if (get() != '>')
                    throw fail(ParseErrorCode::kXmlMalformedTag,
                               "malformed close tag </" +
                                   std::string(close) + ">");
                std::string_view text(text_);
                text.remove_prefix(text_start);
                const std::size_t b = text.find_first_not_of(kTrimmed);
                if (b != std::string_view::npos)
                    doc_.elements_[el].text_ = store(text.substr(
                        b, text.find_last_not_of(kTrimmed) - b + 1));
                text_.resize(text_start);
                return;
            }
            parse_element(depth + 1, el);
        }
    }

    void
    parse_element(std::size_t depth, std::size_t parent)
    {
        const std::size_t start = pos_;
        if (depth > kMaxXmlDepth)
            throw fail_at(ParseErrorCode::kXmlTooDeep,
                          "element nesting exceeds depth limit of " +
                              std::to_string(kMaxXmlDepth),
                          start);
        if (get() != '<')
            throw fail_at(ParseErrorCode::kXmlMalformedTag, "expected '<'",
                          start);
        const std::size_t el = doc_.elements_.size();
        doc_.elements_.emplace_back().offset_ = start;
        pending_.push_back({parent, doc_.attributes_.size()});
        doc_.elements_[el].name_ = parse_name();
        parse_attributes(el);
        skip_whitespace();
        if (starts_with("/>")) {
            advance(2);
            return;
        }
        if (get() != '>')
            throw fail(ParseErrorCode::kXmlMalformedTag,
                       "malformed open tag <" + std::string(name_of(el)) +
                           ">");
        parse_content(el, depth);
    }

    /**
     * Skips a "<!DOCTYPE ...>" (or any "<!...>") prolog declaration.
     * Bracketed internal subsets — "<!DOCTYPE robot [ <!ENTITY ...> ]>" —
     * nest markup declarations inside '[' ']', so the terminating '>' is
     * the first one *outside* the brackets, not the first '>' in the
     * declaration.
     */
    void
    skip_doctype()
    {
        const std::size_t start = pos_;
        advance(2); // "<!"
        long bracket_depth = 0;
        while (!eof()) {
            const char ch = s_[pos_++];
            if (ch == '[') {
                ++bracket_depth;
            } else if (ch == ']') {
                if (bracket_depth > 0)
                    --bracket_depth;
            } else if (ch == '>' && bracket_depth == 0) {
                return;
            }
        }
        throw fail_at(ParseErrorCode::kXmlUnterminated,
                      "unterminated doctype declaration", start);
    }

    /**
     * Points every element at its attributes and children.  Attributes
     * of one element are contiguous, and precede those of the next
     * element in document order.  Children are grouped by parent with a
     * counting sort that keeps document order.
     */
    void
    link()
    {
        std::vector<XmlElement> &els = doc_.elements_;
        const std::vector<XmlAttribute> &attrs = doc_.attributes_;
        const std::size_t n = els.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t first = pending_[i].first_attribute;
            const std::size_t end =
                i + 1 < n ? pending_[i + 1].first_attribute : attrs.size();
            els[i].attributes_ = {attrs.data() + first, end - first};
        }
        // slot[p + 1] counts p's children; prefix sums turn slot[p] into
        // the start of p's run, and filling advances it to the run's end.
        std::vector<std::size_t> slot(n + 1, 0);
        for (std::size_t i = 1; i < n; ++i)
            ++slot[pending_[i].parent + 1];
        for (std::size_t p = 1; p <= n; ++p)
            slot[p] += slot[p - 1];
        doc_.children_.resize(n - 1);
        for (std::size_t i = 1; i < n; ++i)
            doc_.children_[slot[pending_[i].parent]++] = &els[i];
        for (std::size_t p = 0; p < n; ++p) {
            const std::size_t begin = p == 0 ? 0 : slot[p - 1];
            els[p].children_ = {doc_.children_.data() + begin,
                                slot[p] - begin};
        }
    }

    XmlDocument &doc_;
    const char *s_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    char *arena_ = nullptr;             // next free byte of the arena
    std::string text_;                  // open elements' text, stacked
    std::vector<Pending> pending_;      // per element, document order
    std::unordered_set<std::string_view> seen_; // names of a wide element
};

XmlDocument
parse_xml(std::string_view input)
{
    return XmlParser::parse(input);
}

XmlDocument
parse_xml_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw XmlError(ParseErrorCode::kIoError,
                       "cannot open file: " + path, SourceLocation{});
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        throw XmlError(ParseErrorCode::kIoError,
                       "cannot read file: " + path, SourceLocation{});
    return parse_xml(ss.str());
}

} // namespace topology
} // namespace roboshape
