/**
 * @file
 * Tests for the text-table formatter, the CLI option parser and the
 * IndexSet.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "error_match.hh"
#include "util/cli.hh"
#include "util/index_set.hh"
#include "util/random.hh"
#include "util/table.hh"

namespace sbn {
namespace {

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t("Demo");
    t.setHeader({"m", "r=2", "r=4"});
    t.addNumericRow("4", {1.998, 2.867});
    t.addNumericRow("16", {2.0, 3.0});

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("r=2"), std::string::npos);
    EXPECT_NE(out.find("1.998"), std::string::npos);
    EXPECT_NE(out.find("3.000"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, CsvOutput)
{
    TextTable t("title");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "# title\na,b\n1,2\n");
}

TEST(TextTable, FormatNumberPrecision)
{
    EXPECT_EQ(TextTable::formatNumber(1.23456, 3), "1.235");
    EXPECT_EQ(TextTable::formatNumber(2.0, 1), "2.0");
    EXPECT_EQ(TextTable::formatNumber(-0.5, 2), "-0.50");
}

TEST(TextTable, ColumnsAligned)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);

    // All data lines must have equal length (fixed-width columns).
    std::istringstream is(os.str());
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (line.find_first_not_of('-') == std::string::npos)
            continue;
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << "line: " << line;
    }
}

const std::map<std::string, std::string> kKnown = {
    {"n", "processors"},  {"m", "modules"}, {"r", "ratio"},
    {"p", "probability"}, {"buffered", "flag"}, {"rs", "list"},
    {"name", "string"},
};

CommandLine
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return CommandLine(static_cast<int>(argv.size()), argv.data(),
                       kKnown);
}

TEST(CommandLine, EqualsAndSpaceForms)
{
    const auto cli = parse({"--n=8", "--m", "16"});
    EXPECT_EQ(cli.getInt("n", 0), 8);
    EXPECT_EQ(cli.getInt("m", 0), 16);
    EXPECT_EQ(cli.getInt("r", 7), 7); // default
}

TEST(CommandLine, TypedAccessors)
{
    const auto cli =
        parse({"--p=0.25", "--buffered", "--name=hello"});
    EXPECT_DOUBLE_EQ(cli.getDouble("p", 1.0), 0.25);
    EXPECT_TRUE(cli.getBool("buffered", false));
    EXPECT_FALSE(cli.getBool("n", false));
    EXPECT_EQ(cli.getString("name", ""), "hello");
    EXPECT_TRUE(cli.has("p"));
    EXPECT_FALSE(cli.has("r"));
}

TEST(CommandLine, IntegerLists)
{
    const auto cli = parse({"--rs=2,4,8,16"});
    const auto rs = cli.getIntList("rs", {});
    ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs[0], 2);
    EXPECT_EQ(rs[3], 16);

    const auto def = cli.getIntList("n", {1, 2});
    EXPECT_EQ(def.size(), 2u);
}

TEST(CommandLine, ExplicitBooleanValues)
{
    const auto cli = parse({"--buffered=false"});
    EXPECT_FALSE(cli.getBool("buffered", true));
}

/** A job spec's CommandLine over @p argv: errors go to @p error. */
CommandLine
parseSpec(std::vector<const char *> argv, std::string &error)
{
    argv.insert(argv.begin(), "prog");
    return CommandLine(static_cast<int>(argv.size()), argv.data(),
                       kKnown, &error);
}

// The CommandLineDeath suite pins the messages a tool prints after
// "fatal: ". It reads them from the error sink, so only the tool
// grammar's own fatal path below forks.

TEST(CommandLineDeath, UnknownOptionIsFatal)
{
    EXPECT_DEATH((void)parse({"--bogus=1"}), "unknown option");
    std::string error;
    (void)parseSpec({"--bogus=1"}, error);
    EXPECT_TRUE(errorMatches(error, "unknown option"));
}

TEST(CommandLineDeath, BadIntegerIsFatal)
{
    std::string error;
    const auto cli = parseSpec({"--n=abc"}, error);
    EXPECT_EQ(cli.getInt("n", 7), 7); // a failing getter's default
    EXPECT_TRUE(errorMatches(error, "expects an integer"));
}

TEST(CommandLineDeath, IntegerOverflowIsFatal)
{
    // strtoll clamps an overflowing value to INT64_MAX/INT64_MIN and
    // reports it only via errno=ERANGE; without the check a
    // "--n 99999999999999999999" silently becomes INT64_MAX and
    // passes validation.
    std::string error;
    (void)parseSpec({"--n=99999999999999999999"}, error).getInt("n", 0);
    EXPECT_TRUE(errorMatches(error, "integer out of range"));
    std::string negative;
    (void)parseSpec({"--n=-99999999999999999999"}, negative)
        .getInt("n", 0);
    EXPECT_TRUE(errorMatches(negative, "integer out of range"));
}

TEST(CommandLineDeath, IntegerListOverflowIsFatal)
{
    std::string error;
    const auto cli = parseSpec({"--rs=2,99999999999999999999,8"}, error);
    EXPECT_EQ(cli.getIntList("rs", {1}), std::vector<std::int64_t>{1});
    EXPECT_TRUE(errorMatches(error, "integer out of range"));
}

TEST(CommandLineDeath, DoubleOverflowIsFatal)
{
    // strtod's overflow result is +-HUGE_VAL with errno=ERANGE, which
    // previously sailed through as a perfectly legal double.
    std::string error;
    (void)parseSpec({"--p=1e999"}, error).getDouble("p", 0.0);
    EXPECT_TRUE(errorMatches(error, "number out of range"));
}

TEST(CommandLineDeath, DoubleListOverflowIsFatal)
{
    std::string error;
    (void)parseSpec({"--p=0.5,-1e999"}, error).getDoubleList("p", {});
    EXPECT_TRUE(errorMatches(error, "number out of range"));
}

TEST(CommandLine, ExtremeButRepresentableValuesSurvive)
{
    // The ERANGE check must reject only what the type cannot hold.
    const auto cli =
        parse({"--n=9223372036854775807", "--p=1e308"});
    EXPECT_EQ(cli.getInt("n", 0),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_DOUBLE_EQ(cli.getDouble("p", 0.0), 1e308);
}

TEST(CommandLine, DoubleLists)
{
    const auto cli = parse({"--p=0.1,0.5,1"});
    const auto ps = cli.getDoubleList("p", {});
    ASSERT_EQ(ps.size(), 3u);
    EXPECT_DOUBLE_EQ(ps[0], 0.1);
    EXPECT_DOUBLE_EQ(ps[2], 1.0);
    const auto def = cli.getDoubleList("n", {0.25});
    ASSERT_EQ(def.size(), 1u);
    EXPECT_DOUBLE_EQ(def[0], 0.25);
}

TEST(CommandLineDeath, RepeatedOptionIsFatal)
{
    // A repeated option (e.g. a sweep axis named twice) must not
    // silently drop the first value.
    std::string error;
    (void)parseSpec({"--n=4", "--n=8"}, error);
    EXPECT_TRUE(errorMatches(error, "given twice"));
}

TEST(CommandLineDeath, EmptyAndBlankListsAreFatal)
{
    for (const char *rs : {"--rs=", "--rs=2,,8", "--rs=2,4,"}) {
        std::string error;
        (void)parseSpec({rs}, error).getIntList("rs", {});
        EXPECT_TRUE(errorMatches(error, "empty list element")) << rs;
    }
    std::string error;
    (void)parseSpec({"--p=,"}, error).getDoubleList("p", {});
    EXPECT_TRUE(errorMatches(error, "empty list element"));
}

TEST(CommandLine, ASpecGrammarKeepsTheFirstErrorAndKnowsNoHelp)
{
    // --help is a tool's, not a spec's: here it is an unknown option,
    // and the later bad integer does not overwrite that first error.
    std::string error;
    (void)parseSpec({"--help", "--n=abc"}, error).getInt("n", 0);
    EXPECT_EQ(error,
              "unknown option --help (try --help for the option list)");

    std::string positional;
    (void)parseSpec({"8"}, positional);
    EXPECT_TRUE(errorMatches(positional, "unexpected positional"));
}

TEST(IndexSet, InsertEraseContainsCount)
{
    IndexSet set(130); // spans three words
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(0));
    EXPECT_TRUE(set.insert(65));
    EXPECT_TRUE(set.insert(129));
    EXPECT_FALSE(set.insert(65)); // already present
    EXPECT_EQ(set.count(), 3u);
    EXPECT_TRUE(set.contains(65));
    EXPECT_FALSE(set.contains(64));
    EXPECT_TRUE(set.erase(65));
    EXPECT_FALSE(set.erase(65));
    EXPECT_EQ(set.count(), 2u);
}

TEST(IndexSet, NthAndForEachAscend)
{
    IndexSet set(200);
    const std::vector<std::size_t> members{3, 7, 64, 65, 190};
    for (auto i : {65, 3, 190, 7, 64}) // insertion order irrelevant
        set.insert(static_cast<std::size_t>(i));

    for (std::size_t k = 0; k < members.size(); ++k)
        EXPECT_EQ(set.nth(k), members[k]) << "k=" << k;

    std::vector<std::size_t> visited;
    set.forEach([&](std::size_t i) { visited.push_back(i); });
    EXPECT_EQ(visited, members);
}

TEST(IndexSet, NthMatchesANaiveScanOnRandomSets)
{
    // Every k of random sets of one, two and three words, at every
    // capacity path of nth (byte table, two-byte table, one word,
    // several words) and densities from sparse to full.
    RandomGenerator rng(77);
    for (std::size_t capacity : {1u, 5u, 8u, 13u, 16u, 17u, 40u, 64u, 65u,
                                 100u, 128u, 129u, 150u, 192u}) {
        for (double density : {0.05, 0.3, 0.5, 0.8, 1.0}) {
            for (int trial = 0; trial < 20; ++trial) {
                IndexSet set(capacity);
                std::vector<std::size_t> naive;
                for (std::size_t i = 0; i < capacity; ++i) {
                    if (rng.uniformReal() < density) {
                        set.insert(i);
                        naive.push_back(i);
                    }
                }
                ASSERT_EQ(set.count(), naive.size());
                for (std::size_t k = 0; k < naive.size(); ++k)
                    ASSERT_EQ(set.nth(k), naive[k])
                        << "capacity " << capacity << " k " << k;
            }
        }
    }
}

TEST(IndexSet, BulkUnionAndDifferenceTrackCounts)
{
    IndexSet a(100), b(100);
    for (auto i : {1, 50, 99})
        a.insert(static_cast<std::size_t>(i));
    for (auto i : {50, 60})
        b.insert(static_cast<std::size_t>(i));

    a.insertAll(b); // {1, 50, 60, 99}
    EXPECT_EQ(a.count(), 4u);
    EXPECT_TRUE(a.contains(60));

    a.eraseAll(b); // {1, 99}
    EXPECT_EQ(a.count(), 2u);
    EXPECT_FALSE(a.contains(50));
    EXPECT_FALSE(a.contains(60));
    EXPECT_TRUE(a.contains(1));
    EXPECT_TRUE(a.contains(99));

    a.clear();
    EXPECT_TRUE(a.empty());
}

} // namespace
} // namespace sbn
