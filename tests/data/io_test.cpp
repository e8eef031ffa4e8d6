#include "data/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "data/golf.hpp"
#include "data/quest.hpp"

namespace pdt::data {
namespace {

TEST(Csv, GolfRoundTrip) {
  const Dataset original = golf_dataset();
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);

  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.num_attributes(), original.num_attributes());
  EXPECT_EQ(loaded.schema().num_classes(), 2);
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    EXPECT_EQ(loaded.label(i), original.label(i));
    EXPECT_EQ(loaded.cat(golf_attr::kOutlook, i),
              original.cat(golf_attr::kOutlook, i));
    EXPECT_DOUBLE_EQ(loaded.cont(golf_attr::kHumidity, i),
                     original.cont(golf_attr::kHumidity, i));
  }
}

TEST(Csv, QuestRoundTripPreservesDoublesExactly) {
  const Dataset original = quest_generate(50, {.function = 7, .seed = 2});
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);
  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    for (int a = 0; a < original.num_attributes(); ++a) {
      if (original.schema().attr(a).is_continuous()) {
        EXPECT_DOUBLE_EQ(loaded.cont(a, i), original.cont(a, i));
      } else {
        EXPECT_EQ(loaded.cat(a, i), original.cat(a, i));
      }
    }
  }
}

TEST(Csv, HeaderEncodesSchema) {
  const Dataset original = golf_dataset();
  std::stringstream buf;
  save_csv(original, buf);
  const Dataset loaded = load_csv(buf);
  EXPECT_EQ(loaded.schema().attr(0).name, "Outlook");
  EXPECT_TRUE(loaded.schema().attr(0).is_categorical());
  EXPECT_EQ(loaded.schema().attr(0).cardinality, 3);
  EXPECT_TRUE(loaded.schema().attr(1).is_continuous());
}

TEST(Csv, OrderedFlagSurvives) {
  Schema s({Attribute::categorical("bin", 4, /*ordered=*/true),
            Attribute::categorical("nom", 3)},
           2);
  Dataset ds(s, 1);
  const std::size_t r = ds.add_row(1);
  ds.set_cat(0, r, 2);
  ds.set_cat(1, r, 1);
  std::stringstream buf;
  save_csv(ds, buf);
  const Dataset loaded = load_csv(buf);
  EXPECT_TRUE(loaded.schema().attr(0).ordered);
  EXPECT_FALSE(loaded.schema().attr(1).ordered);
}

TEST(Csv, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW((void)load_csv(empty), std::runtime_error);

  std::stringstream bad_header("foo,class:cat:2\n");
  EXPECT_THROW((void)load_csv(bad_header), std::runtime_error);

  std::stringstream bad_row("x:cont,class:cat:2\n1.0\n");
  EXPECT_THROW((void)load_csv(bad_row), std::runtime_error);

  // Values outside [0, cardinality) or [0, num_classes): the error names
  // the row and the column.
  const auto message_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      (void)load_csv(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string cat_high =
      message_of("c:cat:3,class:cat:2\n0,1\n3,0\n");
  EXPECT_NE(cat_high.find("row 1"), std::string::npos) << cat_high;
  EXPECT_NE(cat_high.find("column c"), std::string::npos) << cat_high;
  const std::string cat_negative = message_of("c:cat:3,class:cat:2\n-1,0\n");
  EXPECT_NE(cat_negative.find("row 0"), std::string::npos) << cat_negative;
  EXPECT_NE(cat_negative.find("column c"), std::string::npos) << cat_negative;
  const std::string label_high =
      message_of("x:cont,class:cat:2\n1.0,0\n2.0,1\n3.0,2\n");
  EXPECT_NE(label_high.find("row 2"), std::string::npos) << label_high;
  EXPECT_NE(label_high.find("column class"), std::string::npos) << label_high;
  EXPECT_NE(message_of("x:cont,class:cat:2\n1.0,-1\n"), "no error");

  // A field must be a number in full: no trailing bytes, no blanks, not
  // empty. The error names the row and the column.
  for (const auto& [text, row, column] :
       {std::tuple{"c:cat:3,class:cat:2\n0,1\n2x,0\n", "row 1", "column c"},
        std::tuple{"c:cat:3,class:cat:2\nabc,0\n", "row 0", "column c"},
        std::tuple{"c:cat:3,class:cat:2\n 1,0\n", "row 0", "column c"},
        std::tuple{"c:cat:3,class:cat:2\n1,0\n,1\n", "row 1", "column c"},
        std::tuple{"x:cont,class:cat:2\n1.5abc,0\n", "row 0", "column x"},
        std::tuple{"x:cont,class:cat:2\n1.0,0\nabc,1\n", "row 1", "column x"},
        std::tuple{"x:cont,class:cat:2\n1e999,1\n", "row 0", "column x"},
        std::tuple{"x:cont,class:cat:2\n1.0,1x\n", "row 0", "column class"}}) {
    const std::string message = message_of(text);
    EXPECT_NE(message.find(row), std::string::npos) << text << ": " << message;
    EXPECT_NE(message.find(column), std::string::npos)
        << text << ": " << message;
  }
  // The header's cardinality and class count: positive integers in full.
  for (const char* text :
       {"c:cat:3x,class:cat:2\n0,0\n", "c:cat:abc,class:cat:2\n0,0\n",
        "c:cat:0,class:cat:2\n0,0\n", "x:cont,class:cat:2.5\n1.0,0\n",
        "x:cont,class:cat:\n1.0,0\n"}) {
    const std::string message = message_of(text);
    EXPECT_NE(message.find("header column"), std::string::npos)
        << text << ": " << message;
  }
  // A header with no data rows: a continuous column has no range.
  std::stringstream header_only("x:cont,y:cat:3,class:cat:2\n");
  EXPECT_THROW((void)load_csv(header_only), std::runtime_error);
  std::stringstream blank_rows("x:cont,y:cat:3,class:cat:2\n\n\n");
  EXPECT_THROW((void)load_csv(blank_rows), std::runtime_error);
  // CRLF line ends are not part of the last field.
  std::stringstream crlf("x:cont,y:cat:3,class:cat:2\r\n1.5,2,1\r\n");
  const Dataset from_crlf = load_csv(crlf);
  EXPECT_EQ(from_crlf.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(from_crlf.cont(0, 0), 1.5);
  EXPECT_EQ(from_crlf.label(0), 1);

  // A header declaring more than 256 values or classes.
  std::stringstream wide_cat("c:cat:257,class:cat:2\n0,0\n");
  EXPECT_THROW((void)load_csv(wide_cat), std::runtime_error);
  std::stringstream wide_class("x:cont,class:cat:257\n1.0,0\n");
  EXPECT_THROW((void)load_csv(wide_class), std::runtime_error);
  std::stringstream widest_ok("c:cat:256,class:cat:256\n255,255\n");
  EXPECT_EQ(load_csv(widest_ok).cat(0, 0), 255);
}

TEST(Csv, FileRoundTrip) {
  const Dataset original = golf_dataset();
  const std::string path = ::testing::TempDir() + "/golf_io_test.csv";
  save_csv_file(original, path);
  const Dataset loaded = load_csv_file(path);
  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  EXPECT_THROW((void)load_csv_file(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace pdt::data
