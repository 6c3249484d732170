/**
 * @file
 * The command-line grammar of every tool and of every sbn_sweepd job
 * spec.
 *
 * Supports --name=value and --name value forms plus boolean flags
 * (--name), checked against a table of known options. A tool's
 * command line is fatal on the first malformed option, naming it; a
 * job spec reports the same message through an error sink instead,
 * so the daemon can reject it without dying (see the constructor).
 */

#ifndef SBN_UTIL_CLI_HH
#define SBN_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace sbn {

/** Parsed command line with typed accessors and defaults. */
class CommandLine
{
  public:
    /**
     * Parse argv against @p known (option name -> help text).
     *
     * Without an @p error sink this is a tool's command line: --help
     * prints the option list and exits 0, and the first malformed
     * option, found here, in a getter or by fail(), is fatal. With a
     * sink it is a job spec's grammar: "help" is unknown like any
     * name missing from @p known, the first error lands in *error
     * (later ones are dropped), and a getter that fails returns its
     * default. *error must be empty and outlive the CommandLine.
     */
    CommandLine(int argc, const char *const *argv,
                const std::map<std::string, std::string> &known,
                std::string *error = nullptr);

    /** True if --name was supplied (with or without a value). */
    bool has(const std::string &name) const;

    /** String option with default. */
    std::string getString(const std::string &name,
                          const std::string &def) const;

    /** Integer option with default. A non-numeric or out-of-range
     *  value is an error. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /** Floating-point option with default (errors as getInt). */
    double getDouble(const std::string &name, double def) const;

    /** Boolean flag: present without value, or =true/=false. */
    bool getBool(const std::string &name, bool def) const;

    /**
     * Comma-separated list of integers, e.g. --r=2,4,8. An explicitly
     * supplied empty list or blank element ("--r=", "--r=2,,8") is an
     * error: a sweep axis the user *named* must carry values.
     */
    std::vector<std::int64_t> getIntList(
        const std::string &name, const std::vector<std::int64_t> &def) const;

    /** Comma-separated list of doubles, e.g. --p=0.1,0.5,1.0 (same
     *  empty-list rules as getIntList). */
    std::vector<double> getDoubleList(
        const std::string &name, const std::vector<double> &def) const;

    /** Comma-separated list of strings, e.g. --policy=proc,mem (same
     *  empty-list rules as getIntList). */
    std::vector<std::string> getStringList(
        const std::string &name,
        const std::vector<std::string> &def) const;

    /**
     * Report a malformed option that the getters let through (a value
     * out of its flag's domain): fatal, or the sink's first error, as
     * the constructor says. Returns false.
     */
    template <typename... Args>
    bool fail(Args &&...args) const
    {
        return report(detail::composeMessage(std::forward<Args>(args)...));
    }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    bool report(const std::string &message) const;
    void printHelpAndExit(
        const std::map<std::string, std::string> &known) const;

    std::string program_;
    std::map<std::string, std::string> values_;
    std::string *error_;
};

} // namespace sbn

#endif // SBN_UTIL_CLI_HH
