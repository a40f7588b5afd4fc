/**
 * @file
 * Tests for XML/URDF parsing, the kinematic tree, and Table 3 metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dynamics/crba.h"
#include "dynamics/robot_state.h"
#include "io/fault_injection.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "obs/wall_trace.h"
#include "service/cache.h"
#include "topology/robot_library.h"
#include "topology/robot_model.h"
#include "topology/topology_info.h"
#include "topology/urdf_parser.h"
#include "topology/xml.h"

namespace roboshape {
namespace topology {
namespace {

using spatial::JointModel;
using spatial::JointType;
using spatial::SpatialInertia;
using spatial::SpatialTransform;
using spatial::Vec3;

// ---------------------------------------------------------------- XML ----

TEST(Xml, ParsesElementsAttributesAndNesting)
{
    const XmlDocument doc = parse_xml(
        "<?xml version=\"1.0\"?>\n"
        "<robot name=\"r2\">\n"
        "  <!-- a comment -->\n"
        "  <link name=\"a\"/>\n"
        "  <joint name=\"j\" type=\"revolute\"><parent link=\"a\"/></joint>\n"
        "</robot>");
    const XmlElement &root = doc.root();
    EXPECT_EQ(root.name(), "robot");
    EXPECT_EQ(root.attribute("name"), "r2");
    ASSERT_EQ(root.children().size(), 2u);
    EXPECT_EQ(root.children()[0]->name(), "link");
    const XmlElement *joint = root.child("joint");
    ASSERT_NE(joint, nullptr);
    EXPECT_EQ(joint->attribute("type"), "revolute");
    ASSERT_NE(joint->child("parent"), nullptr);
    EXPECT_EQ(joint->child("parent")->attribute("link"), "a");
}

TEST(Xml, DecodesEntities)
{
    const XmlDocument doc = parse_xml("<a name=\"x &lt; y &amp; z\"/>");
    EXPECT_EQ(doc.root().attribute("name"), "x < y & z");
}

TEST(Xml, CapturesText)
{
    const XmlDocument doc = parse_xml("<a>  hello world  </a>");
    EXPECT_EQ(doc.root().text(), "hello world");
}

TEST(Xml, SingleQuotedAttributes)
{
    const XmlDocument doc = parse_xml("<a b='c d'/>");
    EXPECT_EQ(doc.root().attribute("b"), "c d");
}

TEST(Xml, RejectsMismatchedTags)
{
    EXPECT_THROW(parse_xml("<a><b></a></b>"), XmlError);
}

// ----------------------------------------------- XML hardening (PR 3) ----

/** Runs @p fn expecting an XmlError; returns it for detailed assertions. */
template <typename Fn>
XmlError
expect_xml_error(Fn &&fn)
{
    try {
        fn();
    } catch (const XmlError &e) {
        return e;
    }
    ADD_FAILURE() << "expected XmlError";
    return XmlError(ParseErrorCode::kNone, "", SourceLocation{});
}

TEST(Xml, ErrorsCarryLineAndColumn)
{
    // The stray '=' is on line 3, right after "<joint " (column 8).
    const XmlError e = expect_xml_error([] {
        parse_xml("<robot>\n"
                  "  <link name=\"a\"/>\n"
                  "  <joint =\"oops\"/>\n"
                  "</robot>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlExpectedName);
    EXPECT_EQ(e.location().line, 3u);
    EXPECT_EQ(e.location().column, 10u);
    // The what() text is human-readable and cites line:col.
    EXPECT_NE(std::string(e.what()).find("3:10"), std::string::npos);
    // The snippet shows the offending source line with a caret.
    EXPECT_NE(e.snippet().find("<joint"), std::string::npos);
    EXPECT_NE(e.snippet().find('^'), std::string::npos);
}

TEST(Xml, MismatchedTagErrorPointsAtCloseTag)
{
    const XmlError e = expect_xml_error([] {
        parse_xml("<a>\n  <b>\n  </c>\n</a>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlMismatchedTag);
    EXPECT_EQ(e.location().line, 3u);
}

TEST(Xml, RejectsDuplicateAttributes)
{
    const XmlError e = expect_xml_error([] {
        parse_xml("<a x=\"1\" x=\"2\"/>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlDuplicateAttribute);
    // Last-wins silent acceptance would have kept x="2"; we must reject.
}

TEST(Xml, SkipsDoctypeWithInternalSubset)
{
    // skip_past(">") used to stop at the first '>' inside the bracketed
    // subset, leaving the parser mid-DTD.
    const XmlDocument doc = parse_xml(
        "<!DOCTYPE robot [\n"
        "  <!ENTITY foo \"bar\">\n"
        "  <!ELEMENT robot ANY>\n"
        "]>\n"
        "<robot name=\"r\"><link name=\"a\"/></robot>");
    EXPECT_EQ(doc.root().name(), "robot");
    ASSERT_EQ(doc.root().children().size(), 1u);
}

TEST(Xml, RejectsUnterminatedDoctype)
{
    const XmlError e = expect_xml_error([] {
        parse_xml("<!DOCTYPE robot [ <!ENTITY x \"y\"> <robot/>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlUnterminated);
}

TEST(Xml, ParsesCdataSections)
{
    const XmlDocument doc = parse_xml("<a><![CDATA[x < y & z]]></a>");
    EXPECT_EQ(doc.root().text(), "x < y & z");
    // CDATA in attributes-adjacent text mixes with regular decoded text.
    const XmlDocument mixed =
        parse_xml("<a>pre &amp; <![CDATA[<raw>]]> post</a>");
    EXPECT_EQ(mixed.root().text(), "pre & <raw> post");
}

TEST(Xml, RejectsUnterminatedCdata)
{
    const XmlError e = expect_xml_error([] {
        parse_xml("<a><![CDATA[never closed</a>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlUnterminated);
}

TEST(Xml, DecodesNumericCharacterReferences)
{
    const XmlDocument doc = parse_xml("<a name=\"&#65;&#x42;\"/>");
    EXPECT_EQ(doc.root().attribute("name"), "AB");
}

TEST(Xml, RejectsMalformedCharacterReferences)
{
    EXPECT_EQ(expect_xml_error([] { parse_xml("<a b=\"&#xFFFFFFFFF;\"/>"); })
                  .code(),
              ParseErrorCode::kXmlBadEntity);
    EXPECT_EQ(expect_xml_error([] { parse_xml("<a b=\"&#0;\"/>"); }).code(),
              ParseErrorCode::kXmlBadEntity);
    EXPECT_EQ(expect_xml_error([] { parse_xml("<a b=\"&#;\"/>"); }).code(),
              ParseErrorCode::kXmlBadEntity);
    EXPECT_EQ(expect_xml_error([] { parse_xml("<a>&verylongentityname;</a>"); })
                  .code(),
              ParseErrorCode::kXmlBadEntity);
}

TEST(Xml, RejectsPathologicalNestingDepth)
{
    // Stack-overflow guard: 5000 nested elements must be a typed error,
    // not a crash.
    std::string deep = "<r>";
    for (int i = 0; i < 5000; ++i)
        deep += "<d>";
    const XmlError e = expect_xml_error([&] { parse_xml(deep); });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlTooDeep);
}

TEST(Xml, FileErrorsAreTypedNotBareRuntimeError)
{
    // parse_xml_file used to throw std::runtime_error, invisible to
    // callers catching the documented XmlError type.
    const XmlError e = expect_xml_error([] {
        parse_xml_file("/nonexistent/path/robot.xml");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
}

TEST(Xml, ElementsRecordTheirSourceLocation)
{
    const XmlDocument doc =
        parse_xml("<robot>\n  <link name=\"a\"/>\n</robot>");
    const XmlElement &root = doc.root();
    EXPECT_EQ(locate(doc.source(), root.offset()).line, 1u);
    ASSERT_EQ(root.children().size(), 1u);
    const SourceLocation link =
        locate(doc.source(), root.children()[0]->offset());
    EXPECT_EQ(link.line, 2u);
    EXPECT_EQ(link.column, 3u);
}

TEST(Xml, RejectsUnterminatedInput)
{
    EXPECT_THROW(parse_xml("<a><b/>"), XmlError);
    EXPECT_THROW(parse_xml("<a b=\"unclosed/>"), XmlError);
}

TEST(Xml, RejectsTrailingContent)
{
    EXPECT_THROW(parse_xml("<a/><b/>"), XmlError);
}

TEST(Diagnostics, LineIndexAgreesWithLocate)
{
    // Short and empty lines, runs of newlines, and lines longer than the
    // index's blocks, ending with and without a newline.
    std::string text = "a\n\nbc\r\n\n  d\n";
    for (std::size_t len = 0; len < 700; len += 37)
        text += std::string(len, 'x') + (len % 3 ? "\n" : "\n\n\n");
    text += std::string(1000, 'y');
    for (const std::string &t : {std::string(), text, text + "\n"}) {
        const LineIndex lines(t);
        std::size_t mismatches = 0;
        for (std::size_t offset = 0; offset <= t.size() + 2; ++offset) {
            const SourceLocation want = locate(t, offset);
            const SourceLocation got = lines.locate(offset);
            mismatches += got.offset != want.offset ||
                          got.line != want.line ||
                          got.column != want.column;
        }
        EXPECT_EQ(mismatches, 0u) << t.size() << " bytes";
    }
}

TEST(XmlStress, TwoHundredThousandDistinctAttributesParse)
{
    constexpr std::size_t kAttrs = 200000;
    std::string text = "<a";
    for (std::size_t i = 0; i < kAttrs; ++i)
        text += " k" + std::to_string(i) + "=\"" + std::to_string(i) + "\"";
    text += "/>";
    const XmlDocument doc = parse_xml(text);
    ASSERT_EQ(doc.root().attributes().size(), kAttrs);
    EXPECT_EQ(doc.root().attribute("k0"), "0");
    EXPECT_EQ(doc.root().attribute("k199999"), "199999");
}

TEST(XmlStress, DuplicateAtTheEndIsReportedAtItsOwnPosition)
{
    // One attribute per line; the last repeats the first, and a malformed
    // attribute follows it, which must not be what is reported.
    std::string text = "<a";
    for (std::size_t i = 0; i < 1000; ++i)
        text += "\n k" + std::to_string(i) + "=\"v\"";
    text += "\n k0=\"again\" oops/>";
    const XmlError e = expect_xml_error([&] { parse_xml(text); });
    EXPECT_EQ(e.code(), ParseErrorCode::kXmlDuplicateAttribute);
    EXPECT_EQ(e.location().line, 1002u);
    EXPECT_EQ(e.location().column, 2u);
    EXPECT_NE(std::string(e.what()).find("duplicate attribute 'k0' on <a>"),
              std::string::npos);
    // The same holds on a narrow element.
    const XmlError narrow = expect_xml_error(
        [] { parse_xml("<a x=\"1\"\n  y=\"2\" x=\"3\" z=oops/>"); });
    EXPECT_EQ(narrow.code(), ParseErrorCode::kXmlDuplicateAttribute);
    EXPECT_EQ(narrow.location().line, 2u);
    EXPECT_EQ(narrow.location().column, 9u);
}

TEST(Xml, ChildrenNamedFiltersCorrectly)
{
    const XmlDocument doc = parse_xml("<r><x/><y/><x/></r>");
    EXPECT_EQ(doc.root().children_named("x").size(), 2u);
    EXPECT_EQ(doc.root().children_named("y").size(), 1u);
    EXPECT_EQ(doc.root().children_named("z").size(), 0u);
}

// --------------------------------------------------------------- model ----

RobotModel
two_limb_model()
{
    // Base with two limbs: a 2-link arm and a 1-link head, declared out of
    // order to exercise preorder canonicalization.
    RobotModelBuilder b("toy");
    const JointModel rz(JointType::kRevolute, Vec3::unit_z());
    const SpatialInertia inertia = SpatialInertia::from_mass_com_inertia(
        1.0, {0.0, 0.0, 0.1}, spatial::Mat3::identity() * 0.01);
    b.add_link("arm2", "arm1", rz, SpatialTransform(), inertia);
    b.add_link("head", "", rz, SpatialTransform(), inertia);
    b.add_link("arm1", "", rz, SpatialTransform(), inertia);
    return b.finalize();
}

TEST(RobotModel, PreorderCanonicalization)
{
    const RobotModel m = two_limb_model();
    ASSERT_EQ(m.num_links(), 3u);
    // Declaration order of roots is preserved (head then arm1), and arm2
    // follows its parent immediately.
    EXPECT_EQ(m.link(0).name, "head");
    EXPECT_EQ(m.link(1).name, "arm1");
    EXPECT_EQ(m.link(2).name, "arm2");
    EXPECT_EQ(m.parent(2), 1);
    EXPECT_EQ(m.parent(1), kBaseParent);
    ASSERT_EQ(m.base_children().size(), 2u);
}

TEST(RobotModel, RejectsDuplicateNames)
{
    RobotModelBuilder b("dup");
    const JointModel rz(JointType::kRevolute, Vec3::unit_z());
    b.add_link("a", "", rz, SpatialTransform(), SpatialInertia());
    EXPECT_THROW(
        b.add_link("a", "", rz, SpatialTransform(), SpatialInertia()),
        std::invalid_argument);
}

TEST(RobotModel, RejectsUnknownParent)
{
    RobotModelBuilder b("orphan");
    const JointModel rz(JointType::kRevolute, Vec3::unit_z());
    b.add_link("a", "ghost", rz, SpatialTransform(), SpatialInertia());
    EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(RobotModel, RejectsCycles)
{
    RobotModelBuilder b("cycle");
    const JointModel rz(JointType::kRevolute, Vec3::unit_z());
    b.add_link("a", "b", rz, SpatialTransform(), SpatialInertia());
    b.add_link("b", "a", rz, SpatialTransform(), SpatialInertia());
    EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(RobotModel, RejectsFixedJointsOnMovingLinks)
{
    RobotModelBuilder b("fixed");
    b.add_link("a", "", JointModel(), SpatialTransform(), SpatialInertia());
    EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(RobotModel, FindLinkByName)
{
    const RobotModel m = two_limb_model();
    EXPECT_EQ(m.find_link("arm2"), 2);
    EXPECT_EQ(m.find_link("nope"), -1);
}

TEST(RobotLibrary, FindRobotIsCaseInsensitiveOverTheWholeFleet)
{
    EXPECT_EQ(find_robot("IIWA"), RobotId::kIiwa);
    EXPECT_EQ(find_robot("hyq+ARM"), RobotId::kHyqWithArm);
    EXPECT_EQ(find_robot("humanoid"), RobotId::kHumanoid); // extended fleet
    EXPECT_EQ(find_robot(""), std::nullopt);
    EXPECT_EQ(find_robot("marvin"), std::nullopt);
}

// -------------------------------------------------------------- info ----

TEST(TopologyInfo, DepthsSubtreesAndAncestry)
{
    const RobotModel m = two_limb_model();
    const TopologyInfo t(m);
    EXPECT_EQ(t.depth(0), 1u);
    EXPECT_EQ(t.depth(2), 2u);
    EXPECT_EQ(t.subtree_size(1), 2u);
    EXPECT_TRUE(t.is_ancestor_or_self(1, 2));
    EXPECT_FALSE(t.is_ancestor_or_self(2, 1));
    EXPECT_FALSE(t.is_ancestor_or_self(0, 2));
    EXPECT_TRUE(t.is_leaf(0));
    EXPECT_FALSE(t.is_leaf(1));
    ASSERT_EQ(t.limb_spans().size(), 2u);
    EXPECT_EQ(t.limb_spans()[1], (std::pair<std::size_t, std::size_t>{1, 3}));
}

TEST(TopologyInfo, IsAncestorMatchesParentChainBruteForce)
{
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo t(m);
        const std::size_t n = m.num_links();
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                bool expected = false;
                int cur = static_cast<int>(b);
                while (cur != kBaseParent) {
                    if (cur == static_cast<int>(a)) {
                        expected = true;
                        break;
                    }
                    cur = m.parent(cur);
                }
                EXPECT_EQ(t.is_ancestor_or_self(a, b), expected)
                    << robot_name(id) << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST(TopologyInfo, RootPathEndsAtSelfAndStartsAtLimbRoot)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const TopologyInfo t(m);
    for (std::size_t i = 0; i < m.num_links(); ++i) {
        const auto path = t.root_path(i);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.back(), i);
        EXPECT_EQ(m.parent(path.front()), kBaseParent);
        EXPECT_EQ(path.size(), t.depth(i));
    }
}

/** Expected Table 3 values (see DESIGN.md reconstruction notes). */
struct Table3Row
{
    RobotId id;
    std::size_t total_links;
    std::size_t max_leaf_depth;
    double avg_leaf_depth;
    std::size_t max_descendants;
    double leaf_depth_stdev;
};

/**
 * gtest prints a parameter that has no printer as its raw bytes, and ctest
 * names each instance after that dump. Print the row's bytes with the padding
 * after `id` zeroed, so the names are the same on every build and run rather
 * than carrying whatever the stack held there.
 */
void PrintTo(const Table3Row &row, std::ostream *os)
{
    Table3Row zeroed;
    std::memset(&zeroed, 0, sizeof zeroed);
    zeroed.id = row.id;
    zeroed.total_links = row.total_links;
    zeroed.max_leaf_depth = row.max_leaf_depth;
    zeroed.avg_leaf_depth = row.avg_leaf_depth;
    zeroed.max_descendants = row.max_descendants;
    zeroed.leaf_depth_stdev = row.leaf_depth_stdev;
    ::testing::internal::PrintBytesInObjectTo(
        reinterpret_cast<const unsigned char *>(&zeroed), sizeof zeroed, os);
}

class Table3Metrics : public ::testing::TestWithParam<Table3Row>
{
};

TEST_P(Table3Metrics, MatchesPaper)
{
    const Table3Row row = GetParam();
    const RobotModel m = build_robot(row.id);
    const TopologyMetrics got = TopologyInfo(m).metrics();
    EXPECT_EQ(got.total_links, row.total_links);
    EXPECT_EQ(got.max_leaf_depth, row.max_leaf_depth);
    EXPECT_NEAR(got.avg_leaf_depth, row.avg_leaf_depth, 1e-9);
    EXPECT_EQ(got.max_descendants, row.max_descendants);
    EXPECT_NEAR(got.leaf_depth_stdev, row.leaf_depth_stdev, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    AllRobots, Table3Metrics,
    ::testing::Values(
        Table3Row{RobotId::kIiwa, 7, 7, 7.0, 7, 0.0},
        Table3Row{RobotId::kHyq, 12, 3, 3.0, 3, 0.0},
        // Baxter stdev: population stdev of {1, 7, 7} = 2.828 (the paper
        // prints 2.3; see DESIGN.md).
        Table3Row{RobotId::kBaxter, 15, 7, 5.0, 7, 2.8284},
        Table3Row{RobotId::kJaco2, 12, 9, 9.0, 12, 0.0},
        Table3Row{RobotId::kJaco3, 15, 9, 9.0, 15, 0.0},
        Table3Row{RobotId::kHyqWithArm, 19, 7, 3.8, 7, 1.6}),
    [](const auto &gen_info) {
        std::string name = robot_name(gen_info.param.id);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(gen_info.param.total_links);
    });

TEST(TopologyInfo, MassMatrixSparsityMatchesPaper)
{
    // Paper Sec. 5.2: iiwa fully dense, HyQ 75% sparse, Baxter 56% sparse
    // (99 nonzeros of 225).
    const RobotModel iiwa = build_robot(RobotId::kIiwa);
    EXPECT_NEAR(TopologyInfo(iiwa).mass_matrix_sparsity(), 0.0, 1e-12);
    const RobotModel hyq = build_robot(RobotId::kHyq);
    EXPECT_NEAR(TopologyInfo(hyq).mass_matrix_sparsity(), 0.75, 1e-12);
    const RobotModel baxter_model = build_robot(RobotId::kBaxter);
    const TopologyInfo baxter(baxter_model);
    EXPECT_NEAR(baxter.mass_matrix_sparsity(), 1.0 - 99.0 / 225.0, 1e-12);
}

TEST(TopologyInfo, MaskAgreesWithNumericalMassMatrix)
{
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo t(m);
        const auto mask = t.mass_matrix_mask();
        const auto state = dynamics::random_state(m, 17);
        const linalg::Matrix h = dynamics::crba(m, state.q);
        for (std::size_t i = 0; i < m.num_links(); ++i) {
            for (std::size_t j = 0; j < m.num_links(); ++j) {
                if (!mask[i][j]) {
                    EXPECT_NEAR(h(i, j), 0.0, 1e-12)
                        << robot_name(id) << " (" << i << "," << j << ")";
                }
            }
        }
    }
}

TEST(TopologyInfo, BranchLinks)
{
    // Jaco-3 branches at arm_link6; HyQ and iiwa have no in-tree branches.
    const RobotModel jaco = build_robot(RobotId::kJaco3);
    const TopologyInfo tj(jaco);
    ASSERT_EQ(tj.branch_links().size(), 1u);
    EXPECT_EQ(jaco.link(tj.branch_links()[0]).name, "arm_link6");
    const RobotModel iiwa = build_robot(RobotId::kIiwa);
    EXPECT_TRUE(TopologyInfo(iiwa).branch_links().empty());
    const RobotModel hyq = build_robot(RobotId::kHyq);
    EXPECT_TRUE(TopologyInfo(hyq).branch_links().empty());
}

// --------------------------------------------------------------- urdf ----

TEST(Urdf, RoundTripPreservesTopologyAndDynamics)
{
    for (RobotId id : all_robots()) {
        const RobotModel direct = build_robot(id);
        const RobotModel parsed = parse_urdf(robot_urdf(id));
        ASSERT_EQ(parsed.num_links(), direct.num_links()) << robot_name(id);
        for (std::size_t i = 0; i < direct.num_links(); ++i) {
            EXPECT_EQ(parsed.link(i).name, direct.link(i).name);
            EXPECT_EQ(parsed.parent(i), direct.parent(i));
        }
        // Dynamics-level equivalence: identical mass matrices at random q.
        const auto state = dynamics::random_state(direct, 23);
        const linalg::Matrix hd = dynamics::crba(direct, state.q);
        const linalg::Matrix hp = dynamics::crba(parsed, state.q);
        EXPECT_LT(linalg::max_abs_diff(hd, hp), 1e-10) << robot_name(id);
    }
}

TEST(Urdf, FoldsFixedJoints)
{
    const char *urdf = R"(
      <robot name="folding">
        <link name="base"/>
        <link name="arm"><inertial>
          <origin xyz="0 0 0.1"/><mass value="2"/>
          <inertia ixx="0.1" iyy="0.1" izz="0.05"/></inertial></link>
        <link name="tool"><inertial>
          <origin xyz="0 0 0.05"/><mass value="0.5"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01"/></inertial></link>
        <link name="tip"><inertial>
          <origin xyz="0 0 0.02"/><mass value="0.2"/>
          <inertia ixx="0.001" iyy="0.001" izz="0.001"/></inertial></link>
        <joint name="j1" type="revolute">
          <parent link="base"/><child link="arm"/>
          <origin xyz="0 0 0.2"/><axis xyz="0 0 1"/></joint>
        <joint name="jf" type="fixed">
          <parent link="arm"/><child link="tool"/>
          <origin xyz="0 0 0.3"/></joint>
        <joint name="j2" type="revolute">
          <parent link="tool"/><child link="tip"/>
          <origin xyz="0 0 0.1"/><axis xyz="0 1 0"/></joint>
      </robot>)";
    const RobotModel m = parse_urdf(urdf);
    ASSERT_EQ(m.num_links(), 2u);
    EXPECT_EQ(m.link(0).name, "arm");
    EXPECT_EQ(m.link(1).name, "tip");
    EXPECT_EQ(m.parent(1), 0);
    // Folded mass: arm absorbs the tool.
    EXPECT_NEAR(m.link(0).inertia.mass(), 2.5, 1e-12);
    EXPECT_NEAR(m.link(1).inertia.mass(), 0.2, 1e-12);
    // The tip joint origin accumulates the fixed offset: 0.3 + 0.1 from arm.
    EXPECT_NEAR(m.link(1).x_tree.translation_vector().z, 0.4, 1e-12);
}

TEST(Urdf, RejectsStructuralErrors)
{
    EXPECT_THROW(parse_urdf("<robot name=\"x\"/>"), UrdfError);
    EXPECT_THROW(parse_urdf("<notrobot/>"), UrdfError);
    // Unknown parent link.
    EXPECT_THROW(parse_urdf(R"(
      <robot name="x"><link name="a"/><link name="b"/>
        <joint name="j" type="revolute">
          <parent link="ghost"/><child link="b"/><axis xyz="0 0 1"/>
        </joint></robot>)"),
                 UrdfError);
    // Two roots (disconnected link).
    EXPECT_THROW(parse_urdf(R"(
      <robot name="x"><link name="a"/><link name="b"/></robot>)"),
                 UrdfError);
    // Duplicate child.
    EXPECT_THROW(parse_urdf(R"(
      <robot name="x"><link name="a"/><link name="b"/>
        <joint name="j1" type="revolute">
          <parent link="a"/><child link="b"/><axis xyz="0 0 1"/></joint>
        <joint name="j2" type="revolute">
          <parent link="a"/><child link="b"/><axis xyz="0 0 1"/></joint>
      </robot>)"),
                 UrdfError);
}

TEST(Urdf, RpyRotationsAffectKinematicsCorrectly)
{
    // A joint origin rotated 90 deg about z turns the child's x axis into
    // the parent's y axis; verify through the parsed model's dynamics.
    const char *urdf = R"(
      <robot name="rpy">
        <link name="base"/>
        <link name="a"><inertial>
          <origin xyz="0.2 0 0"/><mass value="1"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01"/></inertial></link>
        <joint name="j1" type="revolute">
          <parent link="base"/><child link="a"/>
          <origin xyz="0 0 0.1" rpy="0 0 1.5707963267948966"/>
          <axis xyz="0 0 1"/></joint>
      </robot>)";
    const RobotModel m = parse_urdf(urdf);
    ASSERT_EQ(m.num_links(), 1u);
    // At q=0 the link's COM (0.2 along child x) lies along parent +y.
    const linalg::Vector q(1);
    const auto fk_x = m.link(0).x_tree.rotation_matrix().transpose_mul(
        {0.2, 0.0, 0.0});
    EXPECT_NEAR(fk_x.x, 0.0, 1e-9);
    EXPECT_NEAR(fk_x.y, 0.2, 1e-9);
    // Gravity torque about the joint's z axis is zero regardless (moment
    // arm parallel to gravity's lever), but the mass matrix must see the
    // 0.2 m offset: M(0,0) = izz + m r^2.
    const linalg::Matrix h = dynamics::crba(m, q);
    EXPECT_NEAR(h(0, 0), 0.01 + 1.0 * 0.2 * 0.2, 1e-9);
}

TEST(Urdf, InertialRpyRotatesTheTensor)
{
    // An inertia diag(1,2,3) in a frame rotated 90 deg about x must read
    // diag(1,3,2) in link axes.
    const char *urdf = R"(
      <robot name="tensor">
        <link name="base"/>
        <link name="a"><inertial>
          <origin xyz="0 0 0" rpy="1.5707963267948966 0 0"/>
          <mass value="2"/>
          <inertia ixx="1" iyy="2" izz="3"/></inertial></link>
        <joint name="j1" type="revolute">
          <parent link="base"/><child link="a"/>
          <axis xyz="0 0 1"/></joint>
      </robot>)";
    const RobotModel m = parse_urdf(urdf);
    const auto &ibar = m.link(0).inertia.ibar();
    EXPECT_NEAR(ibar(0, 0), 1.0, 1e-9);
    EXPECT_NEAR(ibar(1, 1), 3.0, 1e-9);
    EXPECT_NEAR(ibar(2, 2), 2.0, 1e-9);
}

TEST(Urdf, WritesAndParsesFiles)
{
    const std::string dir = ::testing::TempDir();
    const auto paths = write_urdf_files(dir);
    ASSERT_EQ(paths.size(),
              all_robots().size() + extended_robots().size());
    const RobotModel m = parse_urdf_file(paths[0]);
    EXPECT_EQ(m.num_links(), 7u); // iiwa is first
}

// ---------------------------------------------- URDF hardening (PR 3) ----

/** Runs @p fn expecting a UrdfError; returns it for detailed assertions. */
template <typename Fn>
UrdfError
expect_urdf_error(Fn &&fn)
{
    try {
        fn();
    } catch (const UrdfError &e) {
        return e;
    }
    ADD_FAILURE() << "expected UrdfError";
    return UrdfError("");
}

/** Minimal two-link robot with a parameterizable joint/inertial payload. */
std::string
mini_urdf(const std::string &inertial, const std::string &joint_extra)
{
    return "<robot name=\"mini\">\n"
           "  <link name=\"base\"/>\n"
           "  <link name=\"a\">" + inertial + "</link>\n"
           "  <joint name=\"j\" type=\"revolute\">\n"
           "    <parent link=\"base\"/><child link=\"a\"/>\n"
           "    " + joint_extra + "\n"
           "  </joint>\n"
           "</robot>";
}

TEST(Urdf, RejectsTrailingGarbageInVectors)
{
    // "1 2 3 x": the old extra-token read (is >> extra) failed silently on
    // non-numeric trailing tokens, accepting the vector.
    const UrdfError e = expect_urdf_error([] {
        parse_urdf(mini_urdf("", "<origin xyz=\"1 2 3 x\"/>"));
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kUrdfBadVector);
    // Four numeric components are still rejected too.
    EXPECT_EQ(expect_urdf_error([] {
                  parse_urdf(mini_urdf("", "<origin xyz=\"1 2 3 4\"/>"));
              }).code(),
              ParseErrorCode::kUrdfBadVector);
}

TEST(Urdf, RejectsNonFiniteVectorComponents)
{
    for (const char *bad : {"nan 0 0", "0 inf 0", "0 0 -inf", "1e999999 0 0"}) {
        EXPECT_EQ(expect_urdf_error([&] {
                      parse_urdf(mini_urdf(
                          "", "<origin xyz=\"" + std::string(bad) + "\"/>"));
                  }).code(),
                  ParseErrorCode::kUrdfBadVector)
            << bad;
    }
}

TEST(Urdf, RejectsNumericPrefixGarbageInAttributes)
{
    // std::stod("1.5abc") returns 1.5 and ignores the suffix; the checked
    // reader requires full-string consumption.
    const UrdfError e = expect_urdf_error([] {
        parse_urdf(mini_urdf("<inertial><mass value=\"1.5abc\"/>"
                             "<inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"0.1\"/>"
                             "</inertial>",
                             "<axis xyz=\"0 0 1\"/>"));
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kUrdfBadNumber);
    // The message names the offending attribute for operators.
    EXPECT_NE(std::string(e.what()).find("value"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1.5abc"), std::string::npos);
}

TEST(Urdf, NumericErrorsAreTypedNotLeakedStdExceptions)
{
    // Bare std::stod leaked std::invalid_argument on "x" and
    // std::out_of_range on "1e999999"; both must now be UrdfError.
    EXPECT_EQ(expect_urdf_error([] {
                  parse_urdf(mini_urdf(
                      "<inertial><mass value=\"x\"/>"
                      "<inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"0.1\"/>"
                      "</inertial>",
                      ""));
              }).code(),
              ParseErrorCode::kUrdfBadNumber);
    EXPECT_EQ(expect_urdf_error([] {
                  parse_urdf(mini_urdf(
                      "<inertial><mass value=\"1e999999\"/>"
                      "<inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"0.1\"/>"
                      "</inertial>",
                      ""));
              }).code(),
              ParseErrorCode::kUrdfBadNumber);
    // NaN masses are data poison for the whole dynamics pipeline.
    EXPECT_EQ(expect_urdf_error([] {
                  parse_urdf(mini_urdf(
                      "<inertial><mass value=\"nan\"/>"
                      "<inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"0.1\"/>"
                      "</inertial>",
                      ""));
              }).code(),
              ParseErrorCode::kUrdfBadNumber);
}

TEST(Urdf, UnsupportedJointTypeIsTypedError)
{
    // joint_type_from_string threw std::invalid_argument straight through
    // parse_urdf.
    const UrdfError e = expect_urdf_error([] {
        parse_urdf("<robot name=\"x\"><link name=\"a\"/><link name=\"b\"/>"
                   "<joint name=\"j\" type=\"floating\">"
                   "<parent link=\"a\"/><child link=\"b\"/></joint>"
                   "</robot>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kUrdfBadJointType);
}

TEST(Urdf, FileErrorsAreTypedNotBareRuntimeError)
{
    const UrdfError e = expect_urdf_error([] {
        parse_urdf_file("/nonexistent/path/robot.urdf");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kIoError);
}

TEST(Urdf, ErrorsCarryElementLocations)
{
    const UrdfError e = expect_urdf_error([] {
        parse_urdf("<robot name=\"x\">\n"
                   "  <link name=\"base\"/>\n"
                   "  <link name=\"a\">\n"
                   "    <inertial>\n"
                   "      <mass value=\"oops\"/>\n"
                   "      <inertia ixx=\"1\" iyy=\"1\" izz=\"1\"/>\n"
                   "    </inertial>\n"
                   "  </link>\n"
                   "  <joint name=\"j\" type=\"revolute\">\n"
                   "    <parent link=\"base\"/><child link=\"a\"/>\n"
                   "  </joint>\n"
                   "</robot>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kUrdfBadNumber);
    EXPECT_EQ(e.location().line, 5u); // the <mass> element's line
    EXPECT_NE(std::string(e.what()).find("5:"), std::string::npos);
}

TEST(Urdf, RejectsDuplicateJointNames)
{
    const UrdfError e = expect_urdf_error([] {
        parse_urdf("<robot name=\"x\">"
                   "<link name=\"a\"/><link name=\"b\"/><link name=\"c\"/>"
                   "<joint name=\"j\" type=\"revolute\">"
                   "<parent link=\"a\"/><child link=\"b\"/>"
                   "<axis xyz=\"0 0 1\"/></joint>"
                   "<joint name=\"j\" type=\"revolute\">"
                   "<parent link=\"b\"/><child link=\"c\"/>"
                   "<axis xyz=\"0 0 1\"/></joint>"
                   "</robot>");
    });
    EXPECT_EQ(e.code(), ParseErrorCode::kUrdfDuplicateName);
}

// ------------------------------------------- report-mode parse (PR 3) ----

TEST(UrdfChecked, CollectsAllDiagnosticsInOnePass)
{
    // Four independent errors; strict mode would stop at the first.
    const UrdfParseResult result = parse_urdf_checked(
        "<robot name=\"multi\">\n"
        "  <link name=\"base\"/>\n"
        "  <link name=\"a\">\n"
        "    <inertial>\n"
        "      <mass value=\"2.5kg\"/>\n"
        "      <inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"nan\"/>\n"
        "    </inertial>\n"
        "  </link>\n"
        "  <link name=\"a\"/>\n"
        "  <joint name=\"j1\" type=\"revolute\">\n"
        "    <parent link=\"base\"/><child link=\"a\"/>\n"
        "    <origin xyz=\"1 2 3 x\"/>\n"
        "    <axis xyz=\"0 0 1\"/>\n"
        "  </joint>\n"
        "  <joint name=\"j2\" type=\"twisty\">\n"
        "    <parent link=\"base\"/><child link=\"ghost\"/>\n"
        "  </joint>\n"
        "</robot>");
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.model.has_value());
    EXPECT_GE(result.report.error_count(), 4u);
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfBadNumber));
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfDuplicateName));
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfBadVector));
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfBadJointType));
    // Diagnostics carry line:col positions.
    bool located = false;
    for (const auto &d : result.report.diagnostics()) {
        if (d.code == ParseErrorCode::kUrdfBadNumber &&
            d.location.line == 5)
            located = true;
    }
    EXPECT_TRUE(located) << result.report.to_string();
}

TEST(UrdfChecked, NeverThrowsOnXmlGarbage)
{
    const UrdfParseResult result = parse_urdf_checked("<robot><link");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.report.error_count(), 1u);
    EXPECT_EQ(result.report.diagnostics()[0].code,
              ParseErrorCode::kXmlMalformedTag);
}

TEST(UrdfChecked, WarnsOnZeroMassWithNonzeroInertia)
{
    const UrdfParseResult result = parse_urdf_checked(mini_urdf(
        "<inertial><mass value=\"0\"/>"
        "<inertia ixx=\"0.4\" iyy=\"0.4\" izz=\"0.4\"/></inertial>",
        "<axis xyz=\"0 0 1\"/>"));
    EXPECT_TRUE(result.ok()); // warnings never block the model
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfZeroMassInertia));
}

TEST(UrdfChecked, WarnsOnNonPsdAndTriangleViolatingInertia)
{
    const UrdfParseResult npsd = parse_urdf_checked(mini_urdf(
        "<inertial><mass value=\"1\"/>"
        "<inertia ixx=\"-0.1\" iyy=\"0.1\" izz=\"0.1\"/></inertial>",
        "<axis xyz=\"0 0 1\"/>"));
    EXPECT_TRUE(npsd.ok());
    EXPECT_TRUE(npsd.report.has(ParseErrorCode::kUrdfNonPsdInertia));

    // diag(0.1, 0.1, 0.9) is PSD but physically impossible for any rigid
    // body: ixx + iyy >= izz fails.
    const UrdfParseResult tri = parse_urdf_checked(mini_urdf(
        "<inertial><mass value=\"1\"/>"
        "<inertia ixx=\"0.1\" iyy=\"0.1\" izz=\"0.9\"/></inertial>",
        "<axis xyz=\"0 0 1\"/>"));
    EXPECT_TRUE(tri.ok());
    EXPECT_TRUE(tri.report.has(ParseErrorCode::kUrdfTriangleInequality));
    EXPECT_FALSE(tri.report.has(ParseErrorCode::kUrdfNonPsdInertia));
}

TEST(UrdfChecked, WarnsOnNonNormalizedJointAxis)
{
    const UrdfParseResult result =
        parse_urdf_checked(mini_urdf("", "<axis xyz=\"0 0 2\"/>"));
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.report.has(ParseErrorCode::kUrdfNonUnitAxis));
    // The model still normalizes the axis (JointModel invariant).
    EXPECT_NEAR(result.model->link(0).joint.axis().z, 1.0, 1e-12);
}

TEST(UrdfChecked, WarnsOnIgnoredElements)
{
    const UrdfParseResult result = parse_urdf_checked(
        "<robot name=\"extras\">"
        "<gazebo/>"
        "<link name=\"base\"/>"
        "<link name=\"a\"><mystery_payload/></link>"
        "<joint name=\"j\" type=\"revolute\">"
        "<parent link=\"base\"/><child link=\"a\"/>"
        "<axis xyz=\"0 0 1\"/>"
        "<limit lower=\"-1\" upper=\"1\"/></joint>"
        "</robot>");
    EXPECT_TRUE(result.ok());
    std::size_t ignored = 0;
    for (const auto &d : result.report.diagnostics())
        if (d.code == ParseErrorCode::kUrdfIgnoredElement)
            ++ignored;
    // <gazebo> and <mystery_payload> are outside the consumed schema;
    // <limit> is a known joint child the pipeline deliberately skips.
    EXPECT_EQ(ignored, 2u) << result.report.to_string();
}

// Every diagnostic bumps its code's `urdf.diag.<code>` counter by one, and
// nothing while the registry is switched off.
TEST(UrdfChecked, DiagnosticsBumpTheirCodeCounters)
{
    constexpr std::size_t kIgnored = 7;
    std::string extras;
    for (std::size_t i = 0; i < kIgnored; ++i)
        extras += "<gazebo/>";
    const std::string text =
        mini_urdf("", "<axis xyz=\"0 0 2\"/>" + extras);
    obs::Counter &ignored =
        obs::registry().counter("urdf.diag.urdf-ignored-element");
    obs::Counter &axis =
        obs::registry().counter("urdf.diag.urdf-non-unit-axis");

    for (const bool enabled : {true, false}) {
        obs::set_enabled(enabled);
        const std::uint64_t ignored_before = ignored.value();
        const std::uint64_t axis_before = axis.value();
        const UrdfParseResult result = parse_urdf_checked(text);
        obs::set_enabled(true);
        ASSERT_TRUE(result.ok()) << result.report.to_string();
        EXPECT_EQ(result.report.diagnostics().size(), kIgnored + 1);
        EXPECT_EQ(ignored.value() - ignored_before, enabled ? kIgnored : 0)
            << "obs " << (enabled ? "on" : "off");
        EXPECT_EQ(axis.value() - axis_before, enabled ? 1u : 0u)
            << "obs " << (enabled ? "on" : "off");
    }
}

TEST(UrdfStress, FiftyThousandIgnoredElementsWarnOnTheirOwnLines)
{
    // Locations come from one line index built on the first diagnostic,
    // so each diagnostic costs a short scan; the parse time is printed.
    constexpr std::size_t kIgnored = 50000;
    std::string text = "<robot name=\"r\">\n";
    for (std::size_t i = 0; i < kIgnored; ++i)
        text += "  <gazebo/>\n"; // lines 2 .. 50,001
    text += "<link name=\"base\"/><link name=\"a\"/>"
            "<joint name=\"j\" type=\"revolute\">"
            "<parent link=\"base\"/><child link=\"a\"/></joint>\n</robot>\n";
    const std::uint64_t start_ns = obs::wall_now_ns();
    const UrdfParseResult result = parse_urdf_checked(text);
    const double ms =
        static_cast<double>(obs::wall_now_ns() - start_ns) * 1e-6;
    std::printf("[ timing   ] %zu warnings in %.1f ms\n", kIgnored, ms);
    ASSERT_TRUE(result.ok());
    const std::vector<Diagnostic> &diags = result.report.diagnostics();
    ASSERT_EQ(diags.size(), kIgnored);
    std::size_t misplaced = 0;
    for (std::size_t i = 0; i < kIgnored; ++i)
        misplaced += diags[i].code != ParseErrorCode::kUrdfIgnoredElement ||
                     diags[i].location.line != i + 2 ||
                     diags[i].location.column != 3;
    EXPECT_EQ(misplaced, 0u);
}

TEST(UrdfChecked, MatchesStrictModeOnTheWholeRobotLibrary)
{
    for (const auto &seed : all_robot_urdfs()) {
        const RobotModel strict = parse_urdf(seed.text);
        const UrdfParseResult checked = parse_urdf_checked(seed.text);
        ASSERT_TRUE(checked.ok()) << seed.name << "\n"
                                  << checked.report.to_string();
        EXPECT_EQ(checked.report.error_count(), 0u) << seed.name;
        ASSERT_EQ(checked.model->num_links(), strict.num_links());
        for (std::size_t i = 0; i < strict.num_links(); ++i) {
            EXPECT_EQ(checked.model->link(i).name, strict.link(i).name);
            EXPECT_EQ(checked.model->parent(i), strict.parent(i));
            // Bit-identical numerics between the two modes.
            EXPECT_EQ(checked.model->link(i).inertia.mass(),
                      strict.link(i).inertia.mass());
        }
    }
}

TEST(UrdfChecked, FileVariantReportsIoErrors)
{
    const UrdfParseResult result =
        parse_urdf_file_checked("/nonexistent/robot.urdf");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.report.error_count(), 1u);
    EXPECT_EQ(result.report.diagnostics()[0].code,
              ParseErrorCode::kIoError);
}

// -------------------------------------------- adversarial corpus (PR 3) ----

TEST(UrdfCorpus, EveryFileYieldsModelOrTypedError)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(ROBOSHAPE_SOURCE_DIR) / "data" / "corpus";
    ASSERT_TRUE(fs::exists(dir)) << dir;
    std::size_t files = 0, ok_files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".urdf")
            continue;
        ++files;
        const std::string name = entry.path().filename().string();
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();

        // Strict mode: model or typed error, nothing else.
        bool strict_ok = false;
        try {
            parse_urdf(text);
            strict_ok = true;
        } catch (const UrdfError &) {
        } catch (const XmlError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << name << " leaked non-parser exception: "
                          << e.what();
        }
        if (strict_ok)
            ++ok_files;

        // Checked mode: never throws, and agrees with strict mode.
        const UrdfParseResult checked = parse_urdf_checked(text);
        EXPECT_EQ(checked.ok(), strict_ok)
            << name << "\n" << checked.report.to_string();

        // Naming convention encodes the expected outcome.
        if (name.rfind("ok_", 0) == 0 || name.rfind("warn_", 0) == 0) {
            EXPECT_TRUE(strict_ok) << name << "\n"
                                   << checked.report.to_string();
        } else {
            EXPECT_FALSE(strict_ok) << name << " parsed unexpectedly";
        }
        if (name.rfind("warn_", 0) == 0) {
            EXPECT_GE(checked.report.warning_count(), 1u) << name;
        }
    }
    EXPECT_GE(files, 30u) << "corpus shrank below its committed size";
    EXPECT_GE(ok_files, 2u); // doctype/CDATA positives must stay present
}

TEST(RobotLibrary, NamesAndShippedSubset)
{
    EXPECT_STREQ(robot_name(RobotId::kHyqWithArm), "HyQ+arm");
    EXPECT_EQ(shipped_robots().size(), 3u);
    EXPECT_EQ(all_robots().size(), 6u);
    EXPECT_EQ(extended_robots().size(), 3u);
}

TEST(RobotLibrary, ExtendedFleetMetrics)
{
    // Bittle: 4 x 2-link legs.
    const RobotModel bittle = build_robot(RobotId::kBittle);
    const TopologyMetrics bm = TopologyInfo(bittle).metrics();
    EXPECT_EQ(bm.total_links, 8u);
    EXPECT_EQ(bm.max_leaf_depth, 2u);
    EXPECT_EQ(bm.max_descendants, 2u);
    EXPECT_EQ(bittle.base_children().size(), 4u);

    // Pepper: 3-link hip column carrying a 2-link head and two 5-link
    // arms — branch points below the base (off-diagonal mass coupling).
    const RobotModel pepper = build_robot(RobotId::kPepper);
    const TopologyInfo pt(pepper);
    const TopologyMetrics pm = pt.metrics();
    EXPECT_EQ(pm.total_links, 15u);
    EXPECT_EQ(pm.max_leaf_depth, 8u);
    EXPECT_EQ(pm.max_descendants, 15u);
    EXPECT_EQ(pt.branch_links().size(), 1u); // hip_link3
    EXPECT_LT(pt.mass_matrix_sparsity(), 0.5); // heavily coupled

    // Humanoid: 27 links over five limbs.
    const RobotModel humanoid = build_robot(RobotId::kHumanoid);
    const TopologyMetrics hm = TopologyInfo(humanoid).metrics();
    EXPECT_EQ(hm.total_links, 27u);
    EXPECT_EQ(hm.max_leaf_depth, 7u);
    EXPECT_NEAR(hm.avg_leaf_depth, (6 + 6 + 7 + 7 + 1) / 5.0, 1e-12);
    EXPECT_EQ(humanoid.base_children().size(), 5u);
}

TEST(RobotLibrary, ExtendedFleetRoundTripsThroughUrdf)
{
    for (RobotId id : extended_robots()) {
        const RobotModel direct = build_robot(id);
        const RobotModel parsed = parse_urdf(robot_urdf(id));
        ASSERT_EQ(parsed.num_links(), direct.num_links()) << robot_name(id);
        const auto state = dynamics::random_state(direct, 3);
        EXPECT_LT(linalg::max_abs_diff(dynamics::crba(direct, state.q),
                                       dynamics::crba(parsed, state.q)),
                  1e-10)
            << robot_name(id);
    }
}

// ------------------------------------------------ parser byte identity ----
//
// Oracles for the XML and URDF layers: every diagnostic byte (code,
// message, line:column, snippet) and every model bit is pinned, so a
// rewrite of either layer must reproduce them exactly.

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Everything both parse modes say about @p text: the strict outcome (the
 * model's hash, or the exception type, code, what() and snippet), then the
 * checked model's hash, report and snippets.
 */
std::string
parse_outcome(const std::string &text)
{
    std::string out = "strict: ";
    try {
        out += "model " + hex64(service::model_hash(parse_urdf(text)));
    } catch (const XmlError &e) {
        out += std::string("XmlError ") + to_string(e.code()) + ": " +
               e.what() + "\n" + e.snippet();
    } catch (const UrdfError &e) {
        out += std::string("UrdfError ") + to_string(e.code()) + ": " +
               e.what();
    }
    const UrdfParseResult checked = parse_urdf_checked(text);
    out += "\nchecked: ";
    out += checked.ok() ? "model " + hex64(service::model_hash(*checked.model))
                        : std::string("no model");
    out += "\n" + checked.report.to_string();
    for (const Diagnostic &d : checked.report.diagnostics())
        out += "snippet " + d.location.to_string() + ":\n" + d.snippet +
               "\n";
    return out;
}

std::string
read_file(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The corpus files, sorted so every run folds them in one order. */
std::vector<std::filesystem::path>
corpus_files()
{
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    for (const auto &entry : fs::directory_iterator(
             fs::path(ROBOSHAPE_SOURCE_DIR) / "data" / "corpus"))
        if (entry.is_regular_file() && entry.path().extension() == ".urdf")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

/**
 * Golden outcome of every corpus file, compared byte for byte with
 * tests/golden/urdf_corpus/<file>.txt.  Regenerate intentionally with
 *   ROBOSHAPE_UPDATE_GOLDEN=1 ctest -R UrdfGolden.CorpusOutcomesMatchGoldens
 */
TEST(UrdfGolden, CorpusOutcomesMatchGoldens)
{
    const bool update =
        // Presence-only regeneration switch, as in the sweep goldens.
        std::getenv("ROBOSHAPE_UPDATE_GOLDEN") // NOLINT(banned-env-raw)
        != nullptr;
    const std::vector<std::filesystem::path> files = corpus_files();
    ASSERT_GE(files.size(), 30u);
    for (const std::filesystem::path &file : files) {
        const std::string path = std::string(ROBOSHAPE_SOURCE_DIR) +
                                 "/tests/golden/urdf_corpus/" +
                                 file.stem().string() + ".txt";
        const std::string outcome = parse_outcome(read_file(file));
        if (update) {
            std::ofstream out(path, std::ios::binary);
            out << outcome;
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing golden file " << path;
        EXPECT_EQ(outcome, read_file(path))
            << path << ": parse outcome changed; if intentional, "
            << "regenerate with ROBOSHAPE_UPDATE_GOLDEN=1";
    }
}

/**
 * One digest over 3,000 deterministic mutations of the library URDFs and
 * the corpus: any changed diagnostic byte or model bit moves it.
 */
TEST(UrdfGolden, MutationDigestIsPinned)
{
    std::vector<std::string> seeds;
    for (const NamedUrdf &u : all_robot_urdfs())
        seeds.push_back(u.text);
    for (const std::filesystem::path &file : corpus_files())
        seeds.push_back(read_file(file));
    ASSERT_EQ(seeds.size(), 9u + corpus_files().size());

    constexpr std::uint64_t kMutations = 3000;
    std::uint64_t digest = 0xCBF29CE484222325ull; // FNV-1a offset basis
    std::size_t models = 0;
    for (std::uint64_t i = 0; i < kMutations; ++i) {
        const std::string text =
            io::mutate_urdf(seeds[i % seeds.size()], i).text;
        const std::string outcome = parse_outcome(text);
        models += outcome.rfind("strict: model ", 0) == 0;
        for (const unsigned char c : outcome + '\0') {
            digest ^= c;
            digest *= 0x100000001B3ull;
        }
    }
    // Both outcome classes occur, so the digest covers each.
    EXPECT_GE(models, 10u);
    EXPECT_LE(models, kMutations - 1000);
    EXPECT_EQ(hex64(digest), "2d4683202fd0754b");
}

TEST(UrdfGolden, LibraryModelHashesArePinned)
{
    const std::vector<std::pair<RobotId, const char *>> want = {
        {RobotId::kIiwa, "477099a23f0b3a6b"},
        {RobotId::kHyq, "61f7632f97d085e6"},
        {RobotId::kBaxter, "b28c80c89fc33699"},
        {RobotId::kJaco2, "bfe6a07f6dbd9da5"},
        {RobotId::kJaco3, "bbf0221381d5451c"},
        {RobotId::kHyqWithArm, "b3621f8d142ce75f"},
        {RobotId::kBittle, "00f4cbb79bd2d6e5"},
        {RobotId::kPepper, "ad3e1b27b5f36962"},
        {RobotId::kHumanoid, "abd09431898034e1"},
    };
    for (const auto &[id, hash] : want)
        EXPECT_EQ(hex64(service::model_hash(parse_urdf(robot_urdf(id)))),
                  hash)
            << robot_name(id);
}

} // namespace
} // namespace topology
} // namespace roboshape
