/**
 * @file
 * Implementation of the ingestion diagnostics subsystem.
 */

#include "topology/diagnostics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <sstream>
#include <string>

#include "obs/registry.h"

namespace roboshape {
namespace topology {

const char *
to_string(ParseErrorCode code)
{
    switch (code) {
      case ParseErrorCode::kNone:
        return "none";
      case ParseErrorCode::kIoError:
        return "io-error";
      case ParseErrorCode::kXmlUnterminated:
        return "xml-unterminated";
      case ParseErrorCode::kXmlExpectedName:
        return "xml-expected-name";
      case ParseErrorCode::kXmlMalformedTag:
        return "xml-malformed-tag";
      case ParseErrorCode::kXmlMismatchedTag:
        return "xml-mismatched-tag";
      case ParseErrorCode::kXmlDuplicateAttribute:
        return "xml-duplicate-attribute";
      case ParseErrorCode::kXmlBadAttributeSyntax:
        return "xml-bad-attribute-syntax";
      case ParseErrorCode::kXmlBadEntity:
        return "xml-bad-entity";
      case ParseErrorCode::kXmlNoRootElement:
        return "xml-no-root-element";
      case ParseErrorCode::kXmlTrailingContent:
        return "xml-trailing-content";
      case ParseErrorCode::kXmlTooDeep:
        return "xml-too-deep";
      case ParseErrorCode::kUrdfBadRoot:
        return "urdf-bad-root";
      case ParseErrorCode::kUrdfMissingName:
        return "urdf-missing-name";
      case ParseErrorCode::kUrdfDuplicateName:
        return "urdf-duplicate-name";
      case ParseErrorCode::kUrdfMissingElement:
        return "urdf-missing-element";
      case ParseErrorCode::kUrdfBadNumber:
        return "urdf-bad-number";
      case ParseErrorCode::kUrdfBadVector:
        return "urdf-bad-vector";
      case ParseErrorCode::kUrdfBadJointType:
        return "urdf-bad-joint-type";
      case ParseErrorCode::kUrdfNegativeMass:
        return "urdf-negative-mass";
      case ParseErrorCode::kUrdfZeroAxis:
        return "urdf-zero-axis";
      case ParseErrorCode::kUrdfNoLinks:
        return "urdf-no-links";
      case ParseErrorCode::kUrdfUndefinedLink:
        return "urdf-undefined-link";
      case ParseErrorCode::kUrdfMultipleParents:
        return "urdf-multiple-parents";
      case ParseErrorCode::kUrdfNoRootLink:
        return "urdf-no-root-link";
      case ParseErrorCode::kUrdfMultipleRootLinks:
        return "urdf-multiple-root-links";
      case ParseErrorCode::kUrdfNotATree:
        return "urdf-not-a-tree";
      case ParseErrorCode::kUrdfGraphError:
        return "urdf-graph-error";
      case ParseErrorCode::kUrdfIgnoredElement:
        return "urdf-ignored-element";
      case ParseErrorCode::kUrdfZeroMassInertia:
        return "urdf-zero-mass-inertia";
      case ParseErrorCode::kUrdfNonPsdInertia:
        return "urdf-non-psd-inertia";
      case ParseErrorCode::kUrdfTriangleInequality:
        return "urdf-triangle-inequality";
      case ParseErrorCode::kUrdfNonUnitAxis:
        return "urdf-non-unit-axis";
      case ParseErrorCode::kUrdfMissingAttribute:
        return "urdf-missing-attribute";
    }
    return "unknown";
}

std::string
SourceLocation::to_string() const
{
    if (!known())
        return "offset " + std::to_string(offset);
    return std::to_string(line) + ":" + std::to_string(column);
}

SourceLocation
locate(std::string_view text, std::size_t offset)
{
    SourceLocation loc;
    loc.offset = offset > text.size() ? text.size() : offset;
    loc.line = 1;
    loc.column = 1;
    for (std::size_t i = 0; i < loc.offset; ++i) {
        if (text[i] == '\n') {
            ++loc.line;
            loc.column = 1;
        } else {
            ++loc.column;
        }
    }
    return loc;
}

LineIndex::LineIndex(std::string_view text) : text_(text)
{
    newlines_before_.reserve(text.size() / kBlock + 1);
    std::size_t newlines = 0;
    for (std::size_t block = 0; block <= text.size(); block += kBlock) {
        newlines_before_.push_back(newlines);
        const std::string_view part = text.substr(block, kBlock);
        newlines += static_cast<std::size_t>(
            std::count(part.begin(), part.end(), '\n'));
    }
}

SourceLocation
LineIndex::locate(std::size_t offset) const
{
    SourceLocation loc;
    loc.offset = offset > text_.size() ? text_.size() : offset;
    const std::size_t first = loc.offset / kBlock * kBlock;
    std::size_t newlines = newlines_before_[loc.offset / kBlock];
    std::size_t line_start = std::string_view::npos;
    for (std::size_t i = first; i < loc.offset; ++i)
        if (text_[i] == '\n') {
            ++newlines;
            line_start = i + 1;
        }
    if (line_start == std::string_view::npos) {
        const std::size_t before =
            first == 0 ? std::string_view::npos : text_.rfind('\n', first - 1);
        line_start = before == std::string_view::npos ? 0 : before + 1;
    }
    loc.line = newlines + 1;
    loc.column = loc.offset - line_start + 1;
    return loc;
}

std::string
source_snippet(std::string_view text, const SourceLocation &loc)
{
    if (!loc.known() || loc.offset > text.size())
        return {};
    std::size_t begin = loc.offset > 0 ? loc.offset : 0;
    if (begin > text.size())
        begin = text.size();
    const std::size_t line_start = text.rfind('\n', begin == 0 ? 0 : begin - 1);
    const std::size_t start =
        line_start == std::string_view::npos ? 0 : line_start + 1;
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos)
        end = text.size();
    // Clamp very long lines so adversarial one-line inputs stay readable.
    constexpr std::size_t kMaxSnippet = 120;
    std::string line(text.substr(start, end - start));
    std::size_t caret = loc.column > 0 ? loc.column - 1 : 0;
    if (line.size() > kMaxSnippet) {
        const std::size_t window_start =
            caret > kMaxSnippet / 2 ? caret - kMaxSnippet / 2 : 0;
        line = line.substr(window_start, kMaxSnippet);
        caret -= window_start;
    }
    if (caret > line.size())
        caret = line.size();
    // Render tabs as single spaces so the caret column stays aligned.
    for (char &ch : line)
        if (ch == '\t')
            ch = ' ';
    return line + "\n" + std::string(caret, ' ') + "^";
}

std::string
Diagnostic::to_string() const
{
    std::ostringstream os;
    // compiler-style "error[code]" prefix, not a JSON artifact.
    os << (severity == Severity::kError ? "error" : "warning")
       << "[" // NOLINT(json-writer-only)
       << topology::to_string(code) << "]";
    if (location.known())
        os << " " << location.to_string();
    os << ": " << message;
    return os.str();
}

namespace {

/**
 * The `urdf.diag.<code>` counter of @p code.  The name is dynamic, so the
 * static-caching macro cannot hold it; instead each code's counter is
 * looked up under the registry mutex on that code's first emission only,
 * then read from an atomic slot, so concurrent parses in daemon workers
 * never contend on the registry.  Two threads racing on a first emission
 * store the same stable address.
 */
obs::Counter &
diag_counter(ParseErrorCode code)
{
    constexpr std::size_t kCodes =
        static_cast<std::size_t>(ParseErrorCode::kUrdfMissingAttribute) + 1;
    static std::array<std::atomic<obs::Counter *>, kCodes> slots{};
    const auto index = static_cast<std::size_t>(code);
    const auto lookup = [code] {
        return &obs::registry().counter(std::string("urdf.diag.") +
                                        to_string(code));
    };
    if (index >= kCodes)
        return *lookup();
    obs::Counter *counter = slots[index].load(std::memory_order_acquire);
    if (counter == nullptr) {
        counter = lookup();
        slots[index].store(counter, std::memory_order_release);
    }
    return *counter;
}

} // namespace

void
ValidationReport::add(Diagnostic d)
{
    if (d.severity == Severity::kError)
        ++errors_;
    ROBOSHAPE_OBS_COUNT("urdf.diagnostics", 1);
    if (d.severity == Severity::kError)
        ROBOSHAPE_OBS_COUNT("urdf.errors", 1);
    else
        ROBOSHAPE_OBS_COUNT("urdf.warnings", 1);
    if (obs::enabled())
        diag_counter(d.code).add(1);
    diagnostics_.push_back(std::move(d));
}

void
ValidationReport::add_error(ParseErrorCode code, std::string message,
                            SourceLocation location, std::string snippet)
{
    add({Severity::kError, code, std::move(message), location,
         std::move(snippet)});
}

void
ValidationReport::add_warning(ParseErrorCode code, std::string message,
                              SourceLocation location, std::string snippet)
{
    add({Severity::kWarning, code, std::move(message), location,
         std::move(snippet)});
}

bool
ValidationReport::has(ParseErrorCode code) const
{
    for (const Diagnostic &d : diagnostics_)
        if (d.code == code)
            return true;
    return false;
}

std::string
ValidationReport::to_string() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diagnostics_)
        os << d.to_string() << "\n";
    return os.str();
}

} // namespace topology
} // namespace roboshape
