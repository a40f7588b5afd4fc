/**
 * @file
 * Ingestion diagnostics: typed error taxonomy, source locations, and the
 * validation report collected by the checked URDF parse mode.
 *
 * The XML and URDF parsers are the front door of the whole pipeline — a
 * production service ingests robot descriptions from untrusted fleets
 * before any topology extraction happens.  Every parse failure therefore
 * carries a machine-readable ParseErrorCode plus a line:column location,
 * and `parse_urdf_checked` accumulates *all* diagnostics (errors and
 * data-quality warnings) into a ValidationReport instead of throwing on
 * the first problem.  See docs/INGESTION.md.
 */

#ifndef ROBOSHAPE_TOPOLOGY_DIAGNOSTICS_H
#define ROBOSHAPE_TOPOLOGY_DIAGNOSTICS_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace roboshape {
namespace topology {

/** Machine-readable classification of every ingestion diagnostic. */
enum class ParseErrorCode
{
    kNone = 0,

    // File-level failures (unreadable input).
    kIoError,

    // XML layer.
    kXmlUnterminated,       ///< Comment/declaration/CDATA/attr never closed.
    kXmlExpectedName,       ///< A tag or attribute name was expected.
    kXmlMalformedTag,       ///< Open/close tag syntax error.
    kXmlMismatchedTag,      ///< Close tag does not match the open element.
    kXmlDuplicateAttribute, ///< Same attribute given twice on one element.
    kXmlBadAttributeSyntax, ///< Missing '=' or unquoted attribute value.
    kXmlBadEntity,          ///< Unknown or malformed entity/char reference.
    kXmlNoRootElement,      ///< Document contains no element at all.
    kXmlTrailingContent,    ///< Non-whitespace content after the root.
    kXmlTooDeep,            ///< Element nesting beyond the hard depth cap.

    // URDF layer: element/attribute content.
    kUrdfBadRoot,           ///< Root element is not <robot>.
    kUrdfMissingName,       ///< Link/joint without a name attribute.
    kUrdfDuplicateName,     ///< Duplicate link or joint name.
    kUrdfMissingElement,    ///< Required child element absent.
    kUrdfBadNumber,         ///< Attribute is not a single finite number.
    kUrdfBadVector,         ///< Attribute is not exactly 3 finite numbers.
    kUrdfBadJointType,      ///< Unsupported <joint type="...">.
    kUrdfNegativeMass,      ///< <mass value> below zero.
    kUrdfZeroAxis,          ///< Moving joint with a zero axis vector.

    // URDF layer: kinematic-graph structure.
    kUrdfNoLinks,           ///< Robot defines no links.
    kUrdfUndefinedLink,     ///< Joint references a link that does not exist.
    kUrdfMultipleParents,   ///< A link is the child of more than one joint.
    kUrdfNoRootLink,        ///< Every link is some joint's child (loop).
    kUrdfMultipleRootLinks, ///< Disconnected forest.
    kUrdfNotATree,          ///< Joints unreachable from the root link.
    kUrdfGraphError,        ///< Tree builder rejected the structure.

    // Warnings (report mode only; strict mode ignores them).
    kUrdfIgnoredElement,    ///< Element the pipeline does not consume.
    kUrdfZeroMassInertia,   ///< Zero mass but a nonzero inertia tensor.
    kUrdfNonPsdInertia,     ///< Inertia tensor not positive semidefinite.
    kUrdfTriangleInequality,///< Principal inertias violate ixx+iyy >= izz.
    kUrdfNonUnitAxis,       ///< Joint axis is not normalized.
    kUrdfMissingAttribute,  ///< Optional-but-expected attribute absent.
};

/** Stable identifier string for @p code (e.g. "xml-duplicate-attribute"). */
const char *to_string(ParseErrorCode code);

/** Position in the source text; line/column are 1-based, 0 = unknown. */
struct SourceLocation
{
    std::size_t offset = 0; ///< Byte offset into the input.
    std::size_t line = 0;   ///< 1-based line number (0 = unknown).
    std::size_t column = 0; ///< 1-based column number (0 = unknown).

    bool known() const { return line != 0; }

    /** "line:column" or "offset N" when line info is unavailable. */
    std::string to_string() const;
};

/**
 * Computes the line/column of byte @p offset within @p text (clamped to
 * its end).  Each byte is one column; only '\n' starts a line.
 */
SourceLocation locate(std::string_view text, std::size_t offset);

/**
 * Line numbers of one text for many lookups, with the rules of the free
 * locate().  One pass counts the '\n's before every 256-byte block, so
 * a lookup scans at most 255 bytes for its line (plus, for its column,
 * back to its line's start, as source_snippet() does anyway).  The index
 * costs 8 bytes per block, not per line, so a text of newlines cannot
 * make it larger than 1/32 of the text.  The text must outlive the
 * index.
 */
class LineIndex
{
  public:
    explicit LineIndex(std::string_view text);

    SourceLocation locate(std::size_t offset) const;

  private:
    static constexpr std::size_t kBlock = 256;

    std::string_view text_;
    std::vector<std::size_t> newlines_before_; // per block
};

/**
 * Extracts the source line containing @p loc plus a caret marker, e.g.
 *
 *     <mass value="1.5abc"/>
 *                 ^
 *
 * Returns an empty string when the location is unknown or out of range.
 */
std::string source_snippet(std::string_view text, const SourceLocation &loc);

/** Diagnostic severity. Errors prevent model construction; warnings don't. */
enum class Severity
{
    kWarning,
    kError,
};

/** One ingestion finding: severity, code, human message, and location. */
struct Diagnostic
{
    Severity severity = Severity::kError;
    ParseErrorCode code = ParseErrorCode::kNone;
    std::string message;
    SourceLocation location;
    std::string snippet; ///< Offending source line + caret, may be empty.

    /** "error[urdf-bad-number] 12:18: ..." single-line rendering. */
    std::string to_string() const;
};

/**
 * Accumulates every diagnostic of one checked parse.  The report is the
 * single source of truth for "did ingestion succeed": a model is produced
 * iff `ok()`.
 */
class ValidationReport
{
  public:
    void add(Diagnostic d);
    void add_error(ParseErrorCode code, std::string message,
                   SourceLocation location = {}, std::string snippet = {});
    void add_warning(ParseErrorCode code, std::string message,
                     SourceLocation location = {}, std::string snippet = {});

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diagnostics_;
    }

    std::size_t error_count() const { return errors_; }
    std::size_t warning_count() const { return diagnostics_.size() - errors_; }

    /** True when no *errors* were recorded (warnings are allowed). */
    bool ok() const { return errors_ == 0; }

    /** True when a diagnostic with @p code was recorded. */
    bool has(ParseErrorCode code) const;

    /** Multi-line rendering of every diagnostic, one per line. */
    std::string to_string() const;

  private:
    std::vector<Diagnostic> diagnostics_;
    std::size_t errors_ = 0;
};

} // namespace topology
} // namespace roboshape

#endif // ROBOSHAPE_TOPOLOGY_DIAGNOSTICS_H
