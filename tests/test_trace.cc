/**
 * @file
 * Tests of the cross-process span layer (trace/span.hh): the
 * SBN_TRACE_CTX "<trace>:<span>" grammar, and the sbn.trace.v1 line a
 * span appends to this process's shard under SBN_TRACE_DIR.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "trace/span.hh"

namespace sbn {
namespace {

/**
 * Sets or unsets one environment variable for a scope and restores
 * its previous state, so no test leaks tracing into the next one.
 */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved_)
            ::setenv(name_, saved_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** This process's shard file name inside a trace directory. */
std::string
shardName()
{
    return "trace-" + std::to_string(::getpid()) + ".jsonl";
}

/**
 * The trace directory every TraceSpan test points SBN_TRACE_DIR at.
 * The span writer keeps its shard open for the life of the process,
 * so the tests share one per-process directory, count the lines each
 * call appends, and remove the directory only at exit.
 */
class ShardDir
{
  public:
    ShardDir()
        : owner_(::getpid()), path_(::testing::TempDir() + "sbn_trace_" +
                                    std::to_string(owner_))
    {
        ::mkdir(path_.c_str(), 0777);
    }

    ~ShardDir()
    {
        if (::getpid() != owner_)
            return; // a forked child exiting; the parent cleans up
        std::remove((path_ + "/" + shardName()).c_str());
        ::rmdir(path_.c_str());
    }

    ShardDir(const ShardDir &) = delete;
    ShardDir &operator=(const ShardDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    pid_t owner_;
    std::string path_;
};

const std::string &
shardDir()
{
    static const ShardDir dir;
    return dir.path();
}

/** The lines of this process's shard (none when it does not exist). */
std::vector<std::string>
shardLines()
{
    std::ifstream in(shardDir() + "/" + shardName(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string bytes = os.str();
    if (!bytes.empty()) {
        EXPECT_EQ(bytes.back(), '\n') << "torn final line";
    }
    std::vector<std::string> lines;
    std::istringstream split(bytes);
    for (std::string line; std::getline(split, line);)
        lines.push_back(line);
    return lines;
}

JsonObject
parseLine(const std::string &line)
{
    JsonObject obj;
    std::string error;
    EXPECT_TRUE(parseFlatJsonObject(line, obj, error))
        << error << ": " << line;
    return obj;
}

TEST(TraceContext, FormatParseRoundTrip)
{
    const TraceContext ctx{0x0123456789abcdefull, 0xfedcba9876543210ull};
    const std::string text = formatTraceContext(ctx);
    EXPECT_EQ(text, "0123456789abcdef:fedcba9876543210");

    TraceContext back;
    ASSERT_TRUE(parseTraceContext(text, back));
    EXPECT_EQ(back.traceId, ctx.traceId);
    EXPECT_EQ(back.spanId, ctx.spanId);
    EXPECT_EQ(formatTraceContext(back), text);

    // Fewer than 16 digits parse too; span 0 is a trace's root.
    ASSERT_TRUE(parseTraceContext("ab:0", back));
    EXPECT_EQ(back.traceId, 0xabu);
    EXPECT_EQ(back.spanId, 0u);
    EXPECT_TRUE(back.valid());
    EXPECT_EQ(formatTraceContext(back),
              "00000000000000ab:0000000000000000");
}

TEST(TraceContext, ParseRejectsMalformedInput)
{
    const char *const bad[] = {
        "",          "abc",       ":1",       "1:",
        "1:2:3",
        "0:1", // trace id 0 is the invalid context
        "00000000000000001:1", "1:00000000000000001", // 17 digits
        "AB:1",      "1:Cd",      // uppercase hex
        "+1:2",      "-1:2",      "1:+2",     "0x1:2",
        " 1:2",      "1: 2",      "1:2 ",     "1:2\n",
    };
    for (const char *text : bad) {
        TraceContext out{7, 9};
        EXPECT_FALSE(parseTraceContext(text, out)) << "'" << text << "'";
        // A rejected parse leaves the output untouched.
        EXPECT_EQ(out.traceId, 7u) << "'" << text << "'";
        EXPECT_EQ(out.spanId, 9u) << "'" << text << "'";
    }
}

TEST(TraceContext, InheritedContextComesFromTheEnvironment)
{
    ScopedEnv dir(kTraceDirEnvVar, nullptr);
    {
        ScopedEnv ctx(kTraceCtxEnvVar, nullptr);
        EXPECT_FALSE(inheritedTraceContext().valid());
    }
    {
        ScopedEnv ctx(kTraceCtxEnvVar, "00000000000000ab:00000000000000cd");
        const TraceContext got = inheritedTraceContext();
        EXPECT_EQ(got.traceId, 0xabu);
        EXPECT_EQ(got.spanId, 0xcdu);
    }
    // A malformed context starts a fresh trace instead of joining a
    // garbage one.
    for (const char *text : {"0:1", "xyz", "1:2:3", "AB:CD", " 1:2"}) {
        ScopedEnv ctx(kTraceCtxEnvVar, text);
        const TraceContext got = inheritedTraceContext();
        EXPECT_FALSE(got.valid()) << "'" << text << "'";
        EXPECT_EQ(got.spanId, 0u) << "'" << text << "'";
    }
}

TEST(TraceSpan, DisabledWithoutTraceDir)
{
    ScopedEnv ctx(kTraceCtxEnvVar, nullptr);
    for (const char *value : {static_cast<const char *>(nullptr), ""}) {
        ScopedEnv dir(kTraceDirEnvVar, value);
        EXPECT_FALSE(traceEnabled());
        EXPECT_EQ(traceShardDir(), "");
        EXPECT_EQ(traceAllocSpanId(), 0u);
        EXPECT_EQ(traceEmitSpan(TraceContext{1, 0}, "test", "off", 0, 1, 2,
                                {{"k", "v"}}),
                  0u);
        traceEmitSpanWithId(TraceContext{1, 0}, 42, "test", "off", 0, 1,
                            2);
        // The writer was never reached: it would have created its
        // shard under the empty directory name.
        const std::string stray = traceShardDir() + "/" + shardName();
        EXPECT_NE(::access(stray.c_str(), F_OK), 0) << stray;
    }
}

TEST(TraceSpan, OneCallAppendsOneParsableLine)
{
    ScopedEnv ctx(kTraceCtxEnvVar, nullptr);
    ScopedEnv dir(kTraceDirEnvVar, shardDir().c_str());
    ASSERT_TRUE(traceEnabled());
    EXPECT_EQ(traceShardDir(), shardDir());
    const std::size_t before = shardLines().size();

    const std::string name = "say \"hi\" \\ then\nbreak";
    const std::uint64_t span = traceEmitSpan(
        TraceContext{0x1234, 0}, "test", name, 0xabc, 100, 250,
        {{"points", "8"}, {"note", "tab\there"}});
    ASSERT_NE(span, 0u);

    const std::vector<std::string> lines = shardLines();
    ASSERT_EQ(lines.size(), before + 1);
    const JsonObject obj = parseLine(lines.back());
    EXPECT_EQ(obj.size(), 11u); // nine span fields + two attributes
    EXPECT_EQ(obj.at("type").text, "sbn.trace.v1");
    EXPECT_EQ(obj.at("trace").text, "0000000000001234");
    EXPECT_EQ(obj.at("span").text, hex16(span));
    EXPECT_EQ(obj.at("parent").text, "0000000000000abc");
    EXPECT_EQ(obj.at("kind").text, "test");
    EXPECT_EQ(obj.at("name").text, name);
    EXPECT_EQ(obj.at("pid").number, static_cast<double>(::getpid()));
    EXPECT_EQ(obj.at("start_us").number, 100.0);
    EXPECT_EQ(obj.at("end_us").number, 250.0);
    EXPECT_EQ(obj.at("a_points").text, "8");
    EXPECT_EQ(obj.at("a_note").text, "tab\there");

    // Span ids are process-unique.
    const std::uint64_t next =
        traceEmitSpan(TraceContext{0x1234, 0}, "test", "next", span, 250,
                      250);
    EXPECT_NE(next, 0u);
    EXPECT_NE(next, span);
    EXPECT_EQ(shardLines().size(), before + 2);
}

TEST(TraceSpan, ZeroIdWritesNothing)
{
    ScopedEnv ctx(kTraceCtxEnvVar, nullptr);
    ScopedEnv dir(kTraceDirEnvVar, shardDir().c_str());
    const std::size_t before = shardLines().size();

    traceEmitSpanWithId(TraceContext{1, 0}, 0, "test", "zero", 0, 1, 2);
    EXPECT_EQ(shardLines().size(), before);

    // A pre-allocated id is written as given.
    const std::uint64_t id = traceAllocSpanId();
    ASSERT_NE(id, 0u);
    traceEmitSpanWithId(TraceContext{1, 0}, id, "test", "allocated", 0, 1,
                        2);
    const std::vector<std::string> lines = shardLines();
    ASSERT_EQ(lines.size(), before + 1);
    EXPECT_EQ(parseLine(lines.back()).at("span").text, hex16(id));
}

} // namespace
} // namespace sbn
