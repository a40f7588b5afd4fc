/**
 * @file
 * Implementation of the URDF parser (strict and report modes).
 *
 * Both modes share one implementation parameterized by a ParseContext: in
 * strict mode every error throws a typed UrdfError immediately; in report
 * mode errors and warnings accumulate into a ValidationReport and parsing
 * continues so a single pass surfaces *every* problem in the file.
 *
 * Names and values stay views into the XmlDocument, links and joints are
 * numbered, and a diagnostic's text, line:column and snippet are built
 * only when it fires.
 */

#include "topology/urdf_parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/xml.h"

namespace roboshape {
namespace topology {

UrdfError::UrdfError(ParseErrorCode code, const std::string &msg,
                     SourceLocation location)
    : std::runtime_error(location.known()
                             ? msg + " (" + location.to_string() + ")"
                             : msg),
      code_(code),
      location_(location)
{
}

namespace {

using spatial::JointModel;
using spatial::JointType;
using spatial::Mat3;
using spatial::SpatialInertia;
using spatial::SpatialTransform;
using spatial::Vec3;

/** Concatenates message pieces (strings, views, literals). */
template <typename... Parts>
std::string
cat(const Parts &...parts)
{
    std::string out;
    (out.append(std::string_view(parts)), ...);
    return out;
}

/** Diagnostics sink: strict mode throws, report mode accumulates. */
class ParseContext
{
  public:
    /** @p report null selects strict mode. */
    explicit ParseContext(ValidationReport *report) : report_(report) {}

    bool strict() const { return report_ == nullptr; }
    bool failed() const { return failed_; }

    /** The source text every element offset refers to. */
    void set_source(std::string_view source) { source_ = source; }

    void
    error(ParseErrorCode code, const std::string &msg, const XmlElement &at)
    {
        const SourceLocation loc = locate(at.offset());
        if (!report_)
            throw UrdfError(code, msg, loc);
        failed_ = true;
        report_->add_error(code, msg, loc, source_snippet(source_, loc));
    }

    void
    warning(ParseErrorCode code, const std::string &msg,
            const XmlElement &at)
    {
        if (!report_)
            return;
        const SourceLocation loc = locate(at.offset());
        report_->add_warning(code, msg, loc, source_snippet(source_, loc));
    }

  private:
    /** Line and column of @p offset.  The line index is built once, on
     *  the first diagnostic, so a diagnostic costs a short scan, not a
     *  pass over the text. */
    SourceLocation
    locate(std::size_t offset)
    {
        if (!lines_)
            lines_.emplace(source_);
        return lines_->locate(offset);
    }

    ValidationReport *report_;
    std::string_view source_;
    std::optional<LineIndex> lines_;
    bool failed_ = false;
};

/**
 * Parses @p s as exactly one finite double.  Rejects trailing garbage
 * ("1.5abc"), NaN/Inf spellings, and values that overflow to infinity
 * ("1e999999") — the classes of input bare std::stod silently accepts or
 * turns into leaked std::invalid_argument / std::out_of_range.
 *
 * A finite plain decimal that fills @p s — nearly every URDF number —
 * is read by std::from_chars, which rounds exactly as strtod does and
 * several times faster.  Everything else (leading whitespace or '+', hex,
 * trailing whitespace or garbage, out of range, NaN/Inf) takes strtod on a
 * terminated copy, which stops where a terminated string of these bytes
 * would: at the end, or at an embedded NUL.
 */
bool
parse_full_double(std::string_view s, double *out)
{
    double v = 0.0;
    const char *const last = s.data() + s.size();
    if (const auto [ptr, ec] = std::from_chars(s.data(), last, v);
        ec == std::errc() && ptr == last && std::isfinite(v)) {
        *out = v;
        return true;
    }
    char small[64];
    std::string large;
    const char *begin = small;
    if (s.size() < sizeof(small)) {
        if (!s.empty())
            std::memcpy(small, s.data(), s.size());
        small[s.size()] = '\0';
    } else {
        large.assign(s);
        begin = large.c_str();
    }
    char *end = nullptr;
    v = std::strtod(begin, &end);
    if (end == begin)
        return false; // no conversion at all
    while (*end == ' ' || *end == '\t' || *end == '\r' || *end == '\n')
        ++end;
    if (*end != '\0')
        return false; // trailing non-numeric garbage
    if (!std::isfinite(v))
        return false; // "nan", "inf", or overflow to +-HUGE_VAL
    *out = v;
    return true;
}

/**
 * Checked numeric attribute of the <@p el> element of link @p link_name;
 * records kUrdfBadNumber and returns 0 when malformed.
 */
double
parse_double_attr(ParseContext &ctx, const XmlElement &el,
                  std::string_view attr_name, std::string_view link_name)
{
    const std::string_view raw = el.attribute(attr_name, "0");
    double v = 0.0;
    if (parse_full_double(raw, &v))
        return v;
    ctx.error(ParseErrorCode::kUrdfBadNumber,
              cat("malformed number in link '", link_name, "' <", el.name(),
                  "> attribute '", attr_name, "': '", raw, "'"),
              el);
    return 0.0;
}

/** The whitespace operator>> skips in the classic locale. */
bool
is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/**
 * Parses exactly three finite doubles separated by whitespace.  Requires
 * full consumption of the string: "1 2 3 x" and "1 2 3 4" are rejected,
 * as are NaN/Inf components.  Records kUrdfBadVector, naming the vector
 * with @p what(), and returns @p fallback on failure.
 */
template <typename What>
Vec3
parse_vec3(ParseContext &ctx, std::string_view s, const What &what,
           const XmlElement &at, const Vec3 &fallback = Vec3{})
{
    double comps[3];
    std::size_t n = 0;
    bool bad = false;
    for (std::size_t i = 0;;) {
        while (i < s.size() && is_space(s[i]))
            ++i;
        if (i == s.size())
            break;
        std::size_t end = i;
        while (end < s.size() && !is_space(s[end]))
            ++end;
        if (n >= 3 || !parse_full_double(s.substr(i, end - i), &comps[n])) {
            bad = true;
            break;
        }
        ++n;
        i = end;
    }
    if (bad || n != 3) {
        ctx.error(ParseErrorCode::kUrdfBadVector,
                  cat("malformed 3-vector in ", what(), ": '", s, "'"), at);
        return fallback;
    }
    return {comps[0], comps[1], comps[2]};
}

/** Vector-rotation matrix for URDF fixed-axis roll-pitch-yaw. */
Mat3
rotation_from_rpy(const Vec3 &rpy)
{
    const Mat3 rx =
        Mat3::coordinate_rotation(Vec3::unit_x(), rpy.x).transposed();
    const Mat3 ry =
        Mat3::coordinate_rotation(Vec3::unit_y(), rpy.y).transposed();
    const Mat3 rz =
        Mat3::coordinate_rotation(Vec3::unit_z(), rpy.z).transposed();
    return rz * ry * rx;
}

/** URDF <origin>: placement of a child frame within a parent frame. */
struct Pose
{
    Mat3 r = Mat3::identity(); ///< Rotates child coordinates into parent.
    Vec3 p;                    ///< Child origin in parent coordinates.

    /** Featherstone motion transform parent -> child. */
    SpatialTransform
    to_transform() const
    {
        return SpatialTransform(r.transposed(), p);
    }

    /** this: A<-B placement; inner: B<-C placement; result: A<-C. */
    Pose
    compose(const Pose &inner) const
    {
        return {r * inner.r, p + r * inner.p};
    }
};

Pose
parse_origin(ParseContext &ctx, const XmlElement *el)
{
    Pose pose;
    if (!el)
        return pose;
    if (const XmlAttribute *xyz = el->find_attribute("xyz"))
        pose.p = parse_vec3(
            ctx, xyz->value, [] { return "origin xyz"; }, *el);
    if (const XmlAttribute *rpy = el->find_attribute("rpy"))
        pose.r = rotation_from_rpy(parse_vec3(
            ctx, rpy->value, [] { return "origin rpy"; }, *el));
    return pose;
}

/** Report-mode warning for every child element the pipeline ignores. */
void
warn_unhandled_children(ParseContext &ctx, const XmlElement &el,
                        std::initializer_list<std::string_view> handled)
{
    if (ctx.strict())
        return; // warnings only exist in report mode
    for (const XmlElement *child : el.children())
        if (std::find(handled.begin(), handled.end(), child->name()) ==
            handled.end())
            ctx.warning(ParseErrorCode::kUrdfIgnoredElement,
                        cat("ignoring unsupported element <", child->name(),
                            "> inside <", el.name(), ">"),
                        *child);
}

/**
 * Data-quality warnings on a link's inertial parameters: zero mass with a
 * nonzero tensor, tensors violating positive-semidefiniteness (Sylvester
 * minors), and principal moments violating the triangle inequality.
 */
void
check_inertia_quality(ParseContext &ctx, std::string_view link_name,
                      double mass, const Mat3 &ic, const XmlElement &at)
{
    if (ctx.strict())
        return; // warnings only exist in report mode
    const double ixx = ic(0, 0), iyy = ic(1, 1), izz = ic(2, 2);
    const double ixy = ic(0, 1), ixz = ic(0, 2), iyz = ic(1, 2);
    double scale = 1.0;
    for (const double v : {ixx, iyy, izz, ixy, ixz, iyz})
        scale = std::max(scale, std::fabs(v));
    const double tol = 1e-9 * scale;

    const bool tensor_nonzero =
        std::fabs(ixx) > 0.0 || std::fabs(iyy) > 0.0 ||
        std::fabs(izz) > 0.0 || std::fabs(ixy) > 0.0 ||
        std::fabs(ixz) > 0.0 || std::fabs(iyz) > 0.0;
    if (mass == 0.0 && tensor_nonzero)
        ctx.warning(ParseErrorCode::kUrdfZeroMassInertia,
                    cat("link '", link_name,
                        "' has zero mass but a nonzero inertia tensor"),
                    at);

    const double minor2 = ixx * iyy - ixy * ixy;
    const double det = ixx * (iyy * izz - iyz * iyz) -
                       ixy * (ixy * izz - iyz * ixz) +
                       ixz * (ixy * iyz - iyy * ixz);
    if (ixx < -tol || iyy < -tol || izz < -tol || minor2 < -tol * scale ||
        det < -tol * scale * scale)
        ctx.warning(ParseErrorCode::kUrdfNonPsdInertia,
                    cat("link '", link_name,
                        "' inertia tensor is not positive semidefinite"),
                    at);
    if (ixx + iyy < izz - tol || iyy + izz < ixx - tol ||
        izz + ixx < iyy - tol)
        ctx.warning(ParseErrorCode::kUrdfTriangleInequality,
                    cat("link '", link_name,
                        "' principal inertias violate the triangle "
                        "inequality"),
                    at);
}

SpatialInertia
parse_inertial(ParseContext &ctx, const XmlElement *el,
               std::string_view link_name)
{
    if (!el)
        return SpatialInertia(); // massless link
    warn_unhandled_children(ctx, *el, {"origin", "mass", "inertia"});
    const XmlElement *mass_el = el->child("mass");
    const XmlElement *inertia_el = el->child("inertia");
    if (!mass_el || !inertia_el) {
        ctx.error(ParseErrorCode::kUrdfMissingElement,
                  cat("link '", link_name,
                      "' inertial requires <mass> and <inertia>"),
                  *el);
        return SpatialInertia();
    }
    if (!mass_el->has_attribute("value"))
        ctx.warning(ParseErrorCode::kUrdfMissingAttribute,
                    cat("link '", link_name,
                        "' <mass> has no value attribute; assuming 0"),
                    *mass_el);
    double mass = parse_double_attr(ctx, *mass_el, "value", link_name);
    if (mass < 0.0) {
        ctx.error(ParseErrorCode::kUrdfNegativeMass,
                  cat("link '", link_name, "' has negative mass"), *mass_el);
        mass = 0.0;
    }

    Mat3 ic;
    ic(0, 0) = parse_double_attr(ctx, *inertia_el, "ixx", link_name);
    ic(1, 1) = parse_double_attr(ctx, *inertia_el, "iyy", link_name);
    ic(2, 2) = parse_double_attr(ctx, *inertia_el, "izz", link_name);
    ic(0, 1) = ic(1, 0) =
        parse_double_attr(ctx, *inertia_el, "ixy", link_name);
    ic(0, 2) = ic(2, 0) =
        parse_double_attr(ctx, *inertia_el, "ixz", link_name);
    ic(1, 2) = ic(2, 1) =
        parse_double_attr(ctx, *inertia_el, "iyz", link_name);
    check_inertia_quality(ctx, link_name, mass, ic, *inertia_el);

    const Pose pose = parse_origin(ctx, el->child("origin"));
    // Rotate the inertia tensor from the inertial frame into link axes.
    const Mat3 ic_link = pose.r * ic * pose.r.transposed();
    return SpatialInertia::from_mass_com_inertia(mass, pose.p, ic_link);
}

/** Index of no link: the fixed base, or no root found. */
constexpr std::size_t kNoLink = std::numeric_limits<std::size_t>::max();

/** A <link> that entered the model. */
struct RawLink
{
    std::string_view name;
    SpatialInertia inertia;
    bool is_joint_child = false;
};

/** A <joint> that entered the model; links are RawLink indices. */
struct RawJoint
{
    JointType type = JointType::kFixed;
    std::size_t parent = kNoLink;
    std::size_t child = kNoLink;
    Pose origin;
    Vec3 axis = Vec3::unit_z();
};

/** DFS work item: a raw joint plus its articulated-ancestor context. */
struct Visit
{
    std::size_t joint;         ///< Raw joint leading into a link.
    std::size_t moving_parent; ///< Nearest articulated ancestor (kNoLink:
                               ///< the base).
    Pose accum;                ///< Placement of the joint's parent frame in
                               ///< the moving parent's frame.
};

/**
 * Shared strict/report implementation.  Returns a model iff no error was
 * recorded; XML errors propagate as XmlError (the report-mode wrapper
 * converts them).
 */
std::optional<RobotModel>
parse_urdf_impl(std::string_view urdf_text, ParseContext &ctx)
{
    const XmlDocument doc = parse_xml(urdf_text);
    ctx.set_source(doc.source());
    const XmlElement &root = doc.root();
    if (root.name() != "robot") {
        ctx.error(ParseErrorCode::kUrdfBadRoot,
                  cat("root element must be <robot>, got <", root.name(),
                      ">"),
                  root);
        return std::nullopt; // cannot interpret anything below a non-robot
    }
    if (!root.has_attribute("name"))
        ctx.warning(ParseErrorCode::kUrdfMissingAttribute,
                    "<robot> has no name attribute; using 'robot'", root);
    const std::string_view robot_name = root.attribute("name", "robot");
    warn_unhandled_children(ctx, root, {"link", "joint"});

    const std::size_t children = root.children().size();
    std::vector<RawLink> links;
    links.reserve(children);
    std::unordered_map<std::string_view, std::size_t> link_index;
    link_index.reserve(children);
    for (const XmlElement *link_el : root.children_named("link")) {
        const std::string_view name = link_el->attribute("name");
        if (name.empty()) {
            ctx.error(ParseErrorCode::kUrdfMissingName,
                      "link without a name", *link_el);
            continue;
        }
        if (!link_index.emplace(name, links.size()).second) {
            ctx.error(ParseErrorCode::kUrdfDuplicateName,
                      cat("duplicate link '", name, "'"), *link_el);
            continue;
        }
        warn_unhandled_children(ctx, *link_el, {"inertial"});
        links.push_back(
            {name, parse_inertial(ctx, link_el->child("inertial"), name)});
    }
    if (links.empty())
        ctx.error(ParseErrorCode::kUrdfNoLinks, "robot has no links", root);
    const auto find_link = [&](std::string_view name) {
        const auto it = link_index.find(name);
        return it == link_index.end() ? kNoLink : it->second;
    };

    std::vector<RawJoint> joints;
    joints.reserve(children);
    std::unordered_set<std::string_view> joint_names;
    joint_names.reserve(children);
    // When a joint is dropped in report mode the kinematic graph is no
    // longer meaningful; suppress structural diagnostics to avoid cascades.
    bool joints_dropped = false;
    for (const XmlElement *joint_el : root.children_named("joint")) {
        warn_unhandled_children(ctx, *joint_el,
                                {"parent", "child", "origin", "axis",
                                 "limit", "dynamics", "calibration",
                                 "mimic", "safety_controller"});
        const std::string_view name = joint_el->attribute("name");
        if (name.empty()) {
            ctx.error(ParseErrorCode::kUrdfMissingName,
                      "joint without a name", *joint_el);
            joints_dropped = true;
            continue;
        }
        if (!joint_names.insert(name).second) {
            ctx.error(ParseErrorCode::kUrdfDuplicateName,
                      cat("duplicate joint '", name, "'"), *joint_el);
            joints_dropped = true;
            continue;
        }
        RawJoint j;
        const std::string_view type_str = joint_el->attribute("type");
        try {
            j.type = spatial::joint_type_from_string(type_str);
        } catch (const std::invalid_argument &) {
            ctx.error(ParseErrorCode::kUrdfBadJointType,
                      cat("joint '", name, "' has unsupported type '",
                          type_str, "'"),
                      *joint_el);
            joints_dropped = true;
            continue;
        }
        const XmlElement *parent_el = joint_el->child("parent");
        const XmlElement *child_el = joint_el->child("child");
        if (!parent_el || !child_el) {
            ctx.error(ParseErrorCode::kUrdfMissingElement,
                      cat("joint '", name,
                          "' requires <parent> and <child>"),
                      *joint_el);
            joints_dropped = true;
            continue;
        }
        const std::string_view parent = parent_el->attribute("link");
        const std::string_view child = child_el->attribute("link");
        j.parent = find_link(parent);
        if (j.parent == kNoLink) {
            ctx.error(ParseErrorCode::kUrdfUndefinedLink,
                      cat("joint '", name, "' parent link '", parent,
                          "' is undefined"),
                      *parent_el);
            joints_dropped = true;
            continue;
        }
        j.child = find_link(child);
        if (j.child == kNoLink) {
            ctx.error(ParseErrorCode::kUrdfUndefinedLink,
                      cat("joint '", name, "' child link '", child,
                          "' is undefined"),
                      *child_el);
            joints_dropped = true;
            continue;
        }
        j.origin = parse_origin(ctx, joint_el->child("origin"));
        if (const XmlElement *axis_el = joint_el->child("axis"))
            j.axis = parse_vec3(
                ctx, axis_el->attribute("xyz", "0 0 1"),
                [&] { return cat("joint '", name, "' axis"); }, *axis_el,
                Vec3::unit_z());
        if (j.type != JointType::kFixed) {
            const double axis_norm = j.axis.norm();
            if (axis_norm == 0.0)
                ctx.error(ParseErrorCode::kUrdfZeroAxis,
                          cat("joint '", name, "' has a zero axis"),
                          *joint_el);
            else if (std::fabs(axis_norm - 1.0) > 1e-6)
                ctx.warning(ParseErrorCode::kUrdfNonUnitAxis,
                            cat("joint '", name,
                                "' axis is not normalized (|axis| = ",
                                std::to_string(axis_norm), ")"),
                            *joint_el);
        }
        if (links[j.child].is_joint_child) {
            ctx.error(ParseErrorCode::kUrdfMultipleParents,
                      cat("link '", child,
                          "' is the child of multiple joints"),
                      *joint_el);
            joints_dropped = true;
            continue;
        }
        links[j.child].is_joint_child = true;
        joints.push_back(j);
    }

    // The root link is the one that is never a joint child.
    std::size_t root_link = kNoLink;
    if (!links.empty() && !joints_dropped) {
        std::vector<std::size_t> roots;
        for (std::size_t l = 0; l < links.size(); ++l)
            if (!links[l].is_joint_child)
                roots.push_back(l);
        if (roots.empty()) {
            ctx.error(ParseErrorCode::kUrdfNoRootLink,
                      "no root link (kinematic loop)", root);
        } else if (roots.size() > 1) {
            // Name the first two roots in name order.
            std::partial_sort(roots.begin(), roots.begin() + 2, roots.end(),
                              [&](std::size_t a, std::size_t b) {
                                  return links[a].name < links[b].name;
                              });
            ctx.error(ParseErrorCode::kUrdfMultipleRootLinks,
                      cat("multiple root links: '", links[roots[0]].name,
                          "' and '", links[roots[1]].name, "'"),
                      root);
        } else {
            root_link = roots[0];
        }
    }
    if (ctx.failed() || root_link == kNoLink)
        return std::nullopt; // report mode: errors recorded above

    // Joints by parent link, in document order: kids[first_kid[l] ..
    // first_kid[l + 1]) are link l's.
    std::vector<std::size_t> first_kid(links.size() + 1, 0);
    for (const RawJoint &j : joints)
        ++first_kid[j.parent + 1];
    for (std::size_t l = 0; l < links.size(); ++l)
        first_kid[l + 1] += first_kid[l];
    std::vector<std::size_t> kids(joints.size());
    {
        std::vector<std::size_t> next(first_kid.begin(), first_kid.end() - 1);
        for (std::size_t ji = 0; ji < joints.size(); ++ji)
            kids[next[joints[ji].parent]++] = ji;
    }

    // Pass 1: fold fixed joints — merge each rigidly attached link's inertia
    // into its nearest articulated ancestor (parents are visited before
    // their fixed descendants, so merges land on final moving links).
    std::vector<SpatialInertia> merged;
    merged.reserve(links.size());
    for (const RawLink &l : links)
        merged.push_back(l.inertia);
    std::vector<Visit> stack;
    const auto push_children = [&](std::size_t link,
                                   std::size_t moving_parent,
                                   const Pose &accum) {
        for (std::size_t k = first_kid[link + 1]; k-- > first_kid[link];)
            stack.push_back({kids[k], moving_parent, accum});
    };

    push_children(root_link, kNoLink, Pose{});
    std::size_t visited = 0;
    while (!stack.empty()) {
        const Visit v = stack.back();
        stack.pop_back();
        ++visited;
        const RawJoint &j = joints[v.joint];
        const Pose placement = v.accum.compose(j.origin);
        if (j.type == JointType::kFixed) {
            if (v.moving_parent != kNoLink) {
                merged[v.moving_parent] =
                    merged[v.moving_parent] +
                    merged[j.child].expressed_in_parent(
                        placement.to_transform());
            }
            // Ground-mounted fixed structure contributes no dynamics.
            push_children(j.child, v.moving_parent, placement);
        } else {
            push_children(j.child, j.child, Pose{});
        }
    }
    if (visited != joints.size()) {
        ctx.error(ParseErrorCode::kUrdfNotATree,
                  cat("kinematic graph is not a tree rooted at '",
                      links[root_link].name, "'"),
                  root);
        return std::nullopt;
    }

    // Pass 2: emit articulated links with their merged inertias.  The
    // builder re-validates the tree; anything it rejects that slipped past
    // the checks above surfaces as a typed graph error, never as a leaked
    // std::invalid_argument.
    try {
        RobotModelBuilder builder{std::string(robot_name)};
        push_children(root_link, kNoLink, Pose{});
        while (!stack.empty()) {
            const Visit v = stack.back();
            stack.pop_back();
            const RawJoint &j = joints[v.joint];
            const Pose placement = v.accum.compose(j.origin);
            if (j.type == JointType::kFixed) {
                push_children(j.child, v.moving_parent, placement);
            } else {
                builder.add_link(
                    std::string(links[j.child].name),
                    v.moving_parent == kNoLink
                        ? std::string()
                        : std::string(links[v.moving_parent].name),
                    JointModel(j.type, j.axis), placement.to_transform(),
                    merged[j.child]);
                push_children(j.child, j.child, Pose{});
            }
        }
        return builder.finalize();
    } catch (const UrdfError &) {
        throw; // already typed (strict mode)
    } catch (const std::exception &e) {
        ctx.error(ParseErrorCode::kUrdfGraphError,
                  cat("invalid kinematic structure: ", e.what()), root);
        return std::nullopt;
    }
}

/** Reads a whole file; returns false with @p err set on failure. */
bool
read_file(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open URDF file: " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
        *err = "cannot read URDF file: " + path;
        return false;
    }
    *out = ss.str();
    return true;
}

} // namespace

RobotModel
parse_urdf(const std::string &urdf_text)
{
    ParseContext ctx(nullptr); // strict: first error throws
    auto model = parse_urdf_impl(urdf_text, ctx);
    // Strict mode either threw or produced a model.
    return std::move(*model);
}

RobotModel
parse_urdf_file(const std::string &path)
{
    std::string text, err;
    if (!read_file(path, &text, &err))
        throw UrdfError(ParseErrorCode::kIoError, err, SourceLocation{});
    return parse_urdf(text);
}

UrdfParseResult
parse_urdf_checked(const std::string &urdf_text)
{
    UrdfParseResult result;
    ParseContext ctx(&result.report);
    try {
        result.model = parse_urdf_impl(urdf_text, ctx);
    } catch (const XmlError &e) {
        result.report.add_error(e.code(), e.what(), e.location(),
                                e.snippet());
    } catch (const UrdfError &e) {
        // Defensive: report mode records instead of throwing, but any
        // stray typed error still lands in the report.
        result.report.add_error(e.code(), e.what(), e.location());
    }
    if (!result.report.ok())
        result.model.reset();
    return result;
}

UrdfParseResult
parse_urdf_file_checked(const std::string &path)
{
    std::string text, err;
    if (!read_file(path, &text, &err)) {
        UrdfParseResult result;
        result.report.add_error(ParseErrorCode::kIoError, err);
        return result;
    }
    return parse_urdf_checked(text);
}

} // namespace topology
} // namespace roboshape
