// Tests of the io module: circuit file round trips and malformed-input
// rejection, CSV, tables, SVG primitives.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "io/circuit_file.h"
#include "io/csv.h"
#include "io/svg.h"
#include "io/table.h"
#include "package/circuit_generator.h"

namespace fp {
namespace {

TEST(CircuitFile, RoundTripPreservesEverything) {
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = 2;
  const Package original = CircuitGenerator::generate(spec);
  const std::string text = write_circuit(original);
  std::istringstream in(text);
  const Package loaded = read_circuit(in);

  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.netlist().size(), original.netlist().size());
  EXPECT_EQ(loaded.quadrant_count(), original.quadrant_count());
  for (NetId id = 0; id < static_cast<NetId>(original.netlist().size());
       ++id) {
    EXPECT_EQ(loaded.netlist().net(id).name, original.netlist().net(id).name);
    EXPECT_EQ(loaded.netlist().net(id).type, original.netlist().net(id).type);
    EXPECT_EQ(loaded.netlist().net(id).tier, original.netlist().net(id).tier);
  }
  for (int qi = 0; qi < original.quadrant_count(); ++qi) {
    EXPECT_EQ(loaded.quadrant(qi).all_nets(),
              original.quadrant(qi).all_nets());
    EXPECT_EQ(loaded.quadrant(qi).row_count(),
              original.quadrant(qi).row_count());
  }
  EXPECT_DOUBLE_EQ(loaded.geometry().bump_space_um,
                   original.geometry().bump_space_um);
}

TEST(CircuitFile, SaveAndLoadFile) {
  const Package original =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const std::string path = ::testing::TempDir() + "/circuit.fp";
  save_circuit(original, path);
  const Package loaded = load_circuit(path);
  EXPECT_EQ(loaded.finger_count(), original.finger_count());
}

TEST(CircuitFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_circuit("/no/such/file.fp"), IoError);
}

TEST(CircuitFile, CommentsAndBlankLinesIgnored) {
  std::istringstream in(R"(# header comment
circuit demo

geometry 1.0 0.1 0.2 0.1   # trailing comment
net 0 A signal 0
net 1 B power 0
quadrant q0
row 0 1
end
)");
  const Package package = read_circuit(in);
  EXPECT_EQ(package.name(), "demo");
  EXPECT_EQ(package.netlist().net(1).type, NetType::Power);
}

struct BadInput {
  const char* label;
  const char* text;
};

// Prints the label, so each case is listed under a fixed name instead of
// the bytes of its two pointers (which change from build to build).
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.label; }

class MalformedCircuit : public ::testing::TestWithParam<BadInput> {};

TEST_P(MalformedCircuit, Rejected) {
  std::istringstream in(GetParam().text);
  EXPECT_THROW((void)read_circuit(in), IoError) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedCircuit,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"missing end", "circuit c\nnet 0 A signal 0\nquadrant "
                                "q\nrow 0\n"},
        BadInput{"missing header",
                 "net 0 A signal 0\nquadrant q\nrow 0\nend\n"},
        BadInput{"no nets", "circuit c\nquadrant q\nend\n"},
        BadInput{"no quadrants", "circuit c\nnet 0 A signal 0\nend\n"},
        BadInput{"row before quadrant",
                 "circuit c\nnet 0 A signal 0\nrow 0\nend\n"},
        BadInput{"unknown keyword",
                 "circuit c\nnet 0 A signal 0\nbogus 1\nend\n"},
        BadInput{"bad net type",
                 "circuit c\nnet 0 A analog 0\nquadrant q\nrow 0\nend\n"},
        BadInput{"sparse net ids",
                 "circuit c\nnet 5 A signal 0\nquadrant q\nrow 5\nend\n"},
        BadInput{"net in no quadrant",
                 "circuit c\nnet 0 A signal 0\nnet 1 B signal 0\nquadrant "
                 "q\nrow 0\nend\n"},
        BadInput{"net in two rows",
                 "circuit c\nnet 0 A signal 0\nquadrant q\nrow 0\nrow "
                 "0\nend\n"},
        BadInput{"malformed number",
                 "circuit c\ngeometry a b c d\nnet 0 A signal 0\nquadrant "
                 "q\nrow 0\nend\n"},
        BadInput{"short geometry",
                 "circuit c\ngeometry 1.0\nnet 0 A signal 0\nquadrant "
                 "q\nrow 0\nend\n"},
        BadInput{"empty quadrant",
                 "circuit c\nnet 0 A signal 0\nquadrant empty\nquadrant "
                 "q\nrow 0\nend\n"}));

// ------------------------------------------------------------------ csv ----

TEST(Csv, FormatsAndEscapes) {
  CsvWriter csv({"name", "value"});
  csv.add_row({"plain", "1"});
  csv.add_row({"with,comma", "2"});
  csv.add_row({"with\"quote", "3"});
  const std::string text = csv.str();
  EXPECT_NE(text.find("name,value\n"), std::string::npos);
  EXPECT_NE(text.find("\"with,comma\",2\n"), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\",3\n"), std::string::npos);
}

TEST(Csv, WrongArityThrows) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(CsvWriter{std::vector<std::string>{}}, InvalidArgument);
}

TEST(Csv, SaveWritesFile) {
  CsvWriter csv({"a"});
  csv.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/t.csv";
  csv.save(path);
  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line, "a");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp-partial"));
  EXPECT_THROW(csv.save(::testing::TempDir() + "/no/such/dir/t.csv"),
               IoError);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
  TablePrinter table({"circuit", "density"});
  table.add_row({"circuit1", "11"});
  table.add_row({"c2", "5"});
  const std::string text = table.str();
  EXPECT_NE(text.find("| circuit "), std::string::npos);
  EXPECT_NE(text.find("| circuit1 "), std::string::npos);
  EXPECT_NE(text.find("+--"), std::string::npos);
}

TEST(Table, WrongArityThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"1", "2", "3"}), InvalidArgument);
}

// ------------------------------------------------------------------ svg ----

TEST(Svg, CoordinateMapping) {
  SvgCanvas canvas(Rect{0.0, 0.0, 10.0, 10.0}, 100.0);
  // World (0,10) = top-left corner maps to the margin corner.
  const Point top_left = canvas.to_pixels({0.0, 10.0});
  EXPECT_NEAR(top_left.x, 12.0, 1e-9);
  EXPECT_NEAR(top_left.y, 12.0, 1e-9);
  // y-flip: larger world y is smaller pixel y.
  EXPECT_LT(canvas.to_pixels({0.0, 9.0}).y, canvas.to_pixels({0.0, 1.0}).y);
}

TEST(Svg, ElementsAppear) {
  SvgCanvas canvas(Rect{0.0, 0.0, 1.0, 1.0}, 100.0);
  canvas.line({0.0, 0.0}, {1.0, 1.0}, "#ff0000");
  canvas.circle({0.5, 0.5}, 2.0, "blue");
  canvas.rect({0.1, 0.1, 0.9, 0.9}, "none", "#000");
  canvas.text({0.1, 0.9}, "hello");
  canvas.polyline({{0.0, 0.0}, {0.5, 0.5}, {1.0, 0.0}}, "#00ff00");
  const std::string svg = canvas.str();
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("hello"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
}

TEST(Svg, TextIsEscaped) {
  // Text is user input (a circuit name titles the heat map): its `<&"`
  // must come out as entities, or no XML parser reads the SVG.
  SvgCanvas canvas(Rect{0.0, 0.0, 1.0, 1.0}, 100.0);
  canvas.text({0.1, 0.9}, "a<b&c\"d");
  const std::string svg = canvas.str();
  EXPECT_NE(svg.find(">a&lt;b&amp;c&quot;d</text>"), std::string::npos)
      << svg;
  EXPECT_EQ(svg.find("a<b"), std::string::npos) << svg;
}

TEST(Svg, SaveWritesWholeFile) {
  SvgCanvas canvas(Rect{0.0, 0.0, 1.0, 1.0}, 100.0);
  canvas.circle({0.5, 0.5}, 2.0, "blue");
  const std::string path = ::testing::TempDir() + "/t.svg";
  canvas.save(path);
  std::ifstream file(path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, canvas.str());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp-partial"));
  EXPECT_THROW(canvas.save(::testing::TempDir() + "/no/such/dir/t.svg"),
               IoError);
}

TEST(Svg, DegenerateWorldRejected) {
  EXPECT_THROW(SvgCanvas(Rect{0.0, 0.0, 0.0, 1.0}, 100.0), InvalidArgument);
  EXPECT_THROW(SvgCanvas(Rect{0.0, 0.0, 1.0, 1.0}, 10.0), InvalidArgument);
}

TEST(Svg, HeatColorEndpoints) {
  EXPECT_EQ(heat_color(0.0), "#0000ff");
  EXPECT_EQ(heat_color(1.0), "#ff0000");
  EXPECT_EQ(heat_color(-5.0), "#0000ff");  // clamped
  EXPECT_EQ(heat_color(9.0), "#ff0000");
  // Midpoint is green-ish.
  const std::string mid = heat_color(0.5);
  EXPECT_EQ(mid.substr(3, 2), "ff");
}

}  // namespace
}  // namespace fp
