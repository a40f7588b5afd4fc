/**
 * @file
 * Minimal XML document parser.
 *
 * URDF robot description files are plain XML; this self-contained parser
 * covers the subset URDF uses: nested elements, attributes, self-closing
 * tags, comments, CDATA sections, XML declarations, DOCTYPE prologs
 * (including bracketed internal subsets, which are skipped, not expanded),
 * and the five predefined entities plus numeric character references.  It
 * intentionally omits namespaces and custom DTD entity expansion.
 *
 * The parsed document is flat: one array of elements (in document order)
 * and one array of attributes, whose names, values and text are
 * `string_view`s into one buffer the document owns.  That buffer holds a
 * copy of the input followed by an arena for entity-decoded values and
 * element text; decoding never lengthens text, so the arena is sized once
 * and every view stays put.  Elements keep only their byte offset: line
 * and column are computed (diagnostics.h `locate`, `LineIndex`) only when
 * an error or a caller asks for them.
 *
 * The parser is hardened for untrusted input (see docs/INGESTION.md):
 * every error carries a typed ParseErrorCode and a 1-based line:column
 * location with a source snippet, duplicate attributes are rejected, and
 * element nesting is capped at kMaxXmlDepth so adversarial documents
 * cannot overflow the stack.
 */

#ifndef ROBOSHAPE_TOPOLOGY_XML_H
#define ROBOSHAPE_TOPOLOGY_XML_H

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "topology/diagnostics.h"

namespace roboshape {
namespace topology {

/** Hard cap on element nesting depth (anti stack-overflow). */
inline constexpr std::size_t kMaxXmlDepth = 200;

/** Error raised on malformed XML input. */
class XmlError : public std::runtime_error
{
  public:
    XmlError(ParseErrorCode code, const std::string &msg,
             SourceLocation location, std::string snippet = {});

    /** Typed classification of the failure. */
    ParseErrorCode code() const { return code_; }

    /** Position where the error was detected (line/column are 1-based). */
    const SourceLocation &location() const { return location_; }

    /** Byte offset into the input where the error was detected. */
    std::size_t offset() const { return location_.offset; }

    /** Offending source line with a caret marker; may be empty. */
    const std::string &snippet() const { return snippet_; }

  private:
    ParseErrorCode code_;
    SourceLocation location_;
    std::string snippet_;
};

/** One attribute of an element; the value is entity-decoded. */
struct XmlAttribute
{
    std::string_view name;
    std::string_view value;
};

/**
 * A parsed element.  Every view points into the XmlDocument that owns the
 * element, so the element lives as long as its document.
 */
class XmlElement
{
  public:
    std::string_view name() const { return name_; }

    /** Decoded character data directly inside the element (CDATA
     *  included), trimmed of surrounding whitespace. */
    std::string_view text() const { return text_; }

    /** Byte offset of the element's opening '<' in the source. */
    std::size_t offset() const { return offset_; }

    /** Attributes in document order (names are unique). */
    std::span<const XmlAttribute> attributes() const { return attributes_; }

    /** Child elements in document order. */
    std::span<const XmlElement *const> children() const { return children_; }

    /** Attribute @p key, or nullptr when absent. */
    const XmlAttribute *find_attribute(std::string_view key) const;

    /** True when attribute @p key is present. */
    bool has_attribute(std::string_view key) const
    {
        return find_attribute(key) != nullptr;
    }

    /** Attribute value, or @p fallback when absent. */
    std::string_view attribute(std::string_view key,
                               std::string_view fallback = {}) const;

    /** First child element named @p tag, or nullptr. */
    const XmlElement *child(std::string_view tag) const;

    /** All child elements named @p tag. */
    std::vector<const XmlElement *> children_named(std::string_view tag)
        const;

  private:
    friend class XmlParser; // xml.cc fills the fields in

    std::string_view name_;
    std::string_view text_;
    std::span<const XmlAttribute> attributes_;
    std::span<const XmlElement *const> children_;
    std::size_t offset_ = 0;
};

/**
 * A parsed document: it owns its source copy and every element.  Only
 * parse_xml makes one, so every document has a root.
 */
class XmlDocument
{
  public:
    /** The root element. */
    const XmlElement &root() const { return elements_.front(); }

    /** The document's copy of the input it was parsed from. */
    std::string_view source() const { return {buffer_.get(), size_}; }

  private:
    friend class XmlParser;

    XmlDocument() = default;

    std::unique_ptr<char[]> buffer_; // source copy, then the decode arena
    std::size_t size_ = 0;           // source bytes
    std::vector<XmlElement> elements_;
    std::vector<XmlAttribute> attributes_;
    std::vector<const XmlElement *> children_;
};

/**
 * Parses an XML document from a copy of @p input.
 * @throws XmlError on malformed input.
 */
XmlDocument parse_xml(std::string_view input);

/**
 * Reads a whole file and parses it.
 * @throws XmlError with code kIoError when the file cannot be read, or any
 *         other XmlError on malformed content.
 */
XmlDocument parse_xml_file(const std::string &path);

} // namespace topology
} // namespace roboshape

#endif // ROBOSHAPE_TOPOLOGY_XML_H
