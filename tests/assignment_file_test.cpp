// Tests of the assignment interchange format: round trips and rejection of
// inconsistent files.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "assign/dfa.h"
#include "io/assignment_file.h"
#include "package/circuit_generator.h"

namespace fp {
namespace {

Package small_package() {
  CircuitSpec spec = CircuitGenerator::table1(0);
  return CircuitGenerator::generate(spec);
}

TEST(AssignmentFile, RoundTrip) {
  const Package package = small_package();
  const PackageAssignment original = DfaAssigner().assign(package);
  const std::string text = write_assignment(package, original);
  std::istringstream in(text);
  const PackageAssignment loaded = read_assignment(in, package);
  ASSERT_EQ(loaded.quadrants.size(), original.quadrants.size());
  for (std::size_t qi = 0; qi < original.quadrants.size(); ++qi) {
    EXPECT_EQ(loaded.quadrants[qi].order, original.quadrants[qi].order);
  }
}

TEST(AssignmentFile, SaveAndLoad) {
  const Package package = small_package();
  const PackageAssignment original = DfaAssigner().assign(package);
  const std::string path = ::testing::TempDir() + "/plan.fpa";
  save_assignment(package, original, path);
  const PackageAssignment loaded = load_assignment(path, package);
  EXPECT_EQ(loaded.ring_order(), original.ring_order());
}

TEST(AssignmentFile, MissingFileThrows) {
  const Package package = small_package();
  EXPECT_THROW((void)load_assignment("/no/such/file.fpa", package), IoError);
}

TEST(AssignmentFile, RejectsNonPermutation) {
  const Package package = small_package();
  PackageAssignment assignment = DfaAssigner().assign(package);
  std::string text = write_assignment(package, assignment);
  // Duplicate the first net id of the first quadrant line.
  const std::size_t pos = text.find("quadrant bottom ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t id_start = pos + std::string("quadrant bottom ").size();
  const std::size_t id_end = text.find(' ', id_start);
  const std::string first_id = text.substr(id_start, id_end - id_start);
  text.replace(id_start, id_end - id_start, first_id + " " + first_id);
  // Now the line has one duplicate and one extra entry.
  std::istringstream in(text);
  EXPECT_THROW((void)read_assignment(in, package), IoError);
}

// The largest id the format accepts, in a line of the right length: a
// clean "not a permutation" error, not an id-sized allocation.
TEST(AssignmentFile, RejectsLargestNetIdAsNonPermutation) {
  const Package package = small_package();
  std::string text =
      write_assignment(package, DfaAssigner().assign(package));
  const std::size_t id_start =
      text.find("quadrant bottom ") + std::string("quadrant bottom ").size();
  const std::size_t id_end = text.find(' ', id_start);
  text.replace(id_start, id_end - id_start, "2147483647");
  std::istringstream in(text);
  try {
    (void)read_assignment(in, package);
    FAIL() << "read_assignment accepted net id 2147483647";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("not a permutation"),
              std::string::npos)
        << error.what();
  }
}

TEST(AssignmentFile, SaveLeavesNoPartialFile) {
  const Package package = small_package();
  const std::string path = ::testing::TempDir() + "/atomic.fpa";
  save_assignment(package, DfaAssigner().assign(package), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp-partial"));
  EXPECT_THROW(save_assignment(package, DfaAssigner().assign(package),
                               ::testing::TempDir() + "/no/such/dir/a.fpa"),
               IoError);
}

TEST(AssignmentFile, RejectsWrongQuadrantName) {
  const Package package = small_package();
  std::string text =
      write_assignment(package, DfaAssigner().assign(package));
  const std::size_t pos = text.find("quadrant bottom");
  text.replace(pos, std::string("quadrant bottom").size(),
               "quadrant sideways");
  std::istringstream in(text);
  EXPECT_THROW((void)read_assignment(in, package), IoError);
}

TEST(AssignmentFile, RejectsMissingQuadrants) {
  const Package package = small_package();
  std::istringstream in("assignment circuit1\nend\n");
  EXPECT_THROW((void)read_assignment(in, package), IoError);
}

TEST(AssignmentFile, RejectsMissingEnd) {
  const Package package = small_package();
  std::string text =
      write_assignment(package, DfaAssigner().assign(package));
  text.resize(text.rfind("end"));
  std::istringstream in(text);
  EXPECT_THROW((void)read_assignment(in, package), IoError);
}

TEST(AssignmentFile, RejectsUnknownKeyword) {
  const Package package = small_package();
  std::istringstream in("assignment c\nbogus 1 2 3\nend\n");
  EXPECT_THROW((void)read_assignment(in, package), IoError);
}

TEST(AssignmentFile, CommentsIgnored) {
  const Package package = small_package();
  const PackageAssignment original = DfaAssigner().assign(package);
  std::string text = write_assignment(package, original);
  text = "# leading comment\n" + text + "# trailing comment\n";
  std::istringstream in(text);
  EXPECT_NO_THROW((void)read_assignment(in, package));
}

}  // namespace
}  // namespace fp
