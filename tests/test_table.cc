/**
 * @file
 * Unit tests for the table writer.
 */

#include <gtest/gtest.h>

#include "analysis/table.hh"

namespace {

using namespace aw::analysis;

TEST(Table, RendersAlignedColumns)
{
    TableWriter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name   value"), std::string::npos);
    EXPECT_NE(out.find("alpha  1"), std::string::npos);
    EXPECT_NE(out.find("b      22222"), std::string::npos);
}

TEST(Table, HeaderRuleSpansColumns)
{
    TableWriter t({"aa", "bb"});
    t.addRow({"1", "2"});
    const std::string out = t.render();
    // Rule line: width 2 + 2 + 2 = 6 dashes.
    EXPECT_NE(out.find("------\n"), std::string::npos);
}

TEST(Table, CountsRowsAndColumns)
{
    TableWriter t({"a", "b", "c"});
    EXPECT_EQ(t.columns(), 3u);
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"1", "2", "3"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TableDeathTest, RowArityMismatchPanics)
{
    TableWriter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(TableDeathTest, EmptyHeaderPanics)
{
    EXPECT_DEATH(TableWriter({}), "column");
}

TEST(Table, CellFormats)
{
    EXPECT_EQ(cell("%.2f", 3.14159), "3.14");
    EXPECT_EQ(cell("%d%%", 42), "42%");
    EXPECT_EQ(cell("%s", "plain"), "plain");
}

TEST(Table, NoTrailingWhitespace)
{
    TableWriter t({"a", "b"});
    t.addRow({"xxxx", "y"});
    for (const auto &line : {t.render()}) {
        std::size_t pos = 0;
        while ((pos = line.find('\n', pos)) != std::string::npos) {
            if (pos > 0) {
                EXPECT_NE(line[pos - 1], ' ');
            }
            ++pos;
        }
    }
}

} // namespace
