#include "util/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace sbn {

namespace {

/**
 * strtoll with the full error surface: trailing junk AND range. The
 * errno protocol (reset before, check ERANGE after) is the same one
 * shard/fault.cc's clause parser uses; without it an overflowing
 * "--processors 99999999999999999999" silently clamps to INT64_MAX
 * and sails through validation.
 */
bool
parseInt(const CommandLine &cli, const std::string &name,
         const std::string &text, std::int64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        return cli.fail("option --", name, " expects an integer, got '",
                        text, "'");
    if (errno == ERANGE)
        return cli.fail("option --", name,
                        ": integer out of range, got '", text, "'");
    return true;
}

/** strtod counterpart: overflow (+-HUGE_VAL) and underflow both set
 *  ERANGE and both are errors - a value the double type cannot
 *  represent is a configuration error, not a rounding request. */
bool
parseDouble(const CommandLine &cli, const std::string &name,
            const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return cli.fail("option --", name, " expects a number, got '",
                        text, "'");
    if (errno == ERANGE)
        return cli.fail("option --", name,
                        ": number out of range, got '", text, "'");
    return true;
}

/** Split a comma list into non-empty elements; empty lists and empty
 *  elements (",,", trailing ",") are configuration errors. */
bool
splitList(const CommandLine &cli, const std::string &name,
          const std::string &text, std::vector<std::string> &out)
{
    std::string cur;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i < text.size() && text[i] != ',') {
            cur.push_back(text[i]);
            continue;
        }
        if (cur.empty())
            return cli.fail("option --", name,
                            ": empty list element (a value list like "
                            "'2,4,8' must name at least one value and "
                            "no blanks)");
        out.push_back(cur);
        cur.clear();
    }
    return true;
}

/** A list option's elements, each parsed by @p parse; @p def when
 *  the option is absent or any element fails. */
template <typename T, typename Parse>
std::vector<T>
getList(const CommandLine &cli, const std::string &name,
        const std::vector<T> &def, Parse parse)
{
    // Empty means absent or malformed: a named list is never empty.
    const std::vector<std::string> elements = cli.getStringList(name, {});
    if (elements.empty())
        return def;
    std::vector<T> out(elements.size());
    for (std::size_t i = 0; i < elements.size(); ++i)
        if (!parse(cli, name, elements[i], out[i]))
            return def;
    return out;
}

} // namespace

CommandLine::CommandLine(int argc, const char *const *argv,
                         const std::map<std::string, std::string> &known,
                         std::string *error)
    : program_(argc > 0 ? argv[0] : "sbn"), error_(error)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            fail("unexpected positional argument '", arg,
                 "' (options start with --)");
            continue;
        }
        arg = arg.substr(2);

        std::string name = arg;
        std::string value;
        bool have_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            have_value = true;
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            value = argv[++i];
            have_value = true;
        }

        if (name == "help" && error_ == nullptr)
            printHelpAndExit(known);
        if (!known.count(name))
            fail("unknown option --", name,
                 " (try --help for the option list)");
        else if (values_.count(name))
            fail("option --", name,
                 " given twice - a repeated option (e.g. a sweep axis "
                 "named again) silently discarding the first value is "
                 "never what you want");
        else
            values_[name] = have_value ? value : "true";
    }
}

bool
CommandLine::report(const std::string &message) const
{
    if (error_ == nullptr)
        fatalImpl(message, __FILE__, __LINE__);
    if (error_->empty())
        *error_ = message;
    return false;
}

void
CommandLine::printHelpAndExit(
    const std::map<std::string, std::string> &known) const
{
    std::printf("usage: %s [--option=value ...]\n\noptions:\n",
                program_.c_str());
    for (const auto &[name, help] : known)
        std::printf("  --%-18s %s\n", name.c_str(), help.c_str());
    std::printf("  --%-18s %s\n", "help", "show this message");
    std::exit(0);
}

bool
CommandLine::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CommandLine::getString(const std::string &name, const std::string &def) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

std::int64_t
CommandLine::getInt(const std::string &name, std::int64_t def) const
{
    const auto it = values_.find(name);
    std::int64_t v = def;
    return it != values_.end() && parseInt(*this, name, it->second, v)
               ? v
               : def;
}

double
CommandLine::getDouble(const std::string &name, double def) const
{
    const auto it = values_.find(name);
    double v = def;
    return it != values_.end() && parseDouble(*this, name, it->second, v)
               ? v
               : def;
}

bool
CommandLine::getBool(const std::string &name, bool def) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fail("option --", name, " expects a boolean, got '", v, "'");
    return def;
}

std::vector<std::int64_t>
CommandLine::getIntList(const std::string &name,
                        const std::vector<std::int64_t> &def) const
{
    return getList(*this, name, def, parseInt);
}

std::vector<std::string>
CommandLine::getStringList(const std::string &name,
                           const std::vector<std::string> &def) const
{
    std::vector<std::string> elements;
    return has(name) && splitList(*this, name, getString(name, ""), elements)
               ? elements
               : def;
}

std::vector<double>
CommandLine::getDoubleList(const std::string &name,
                           const std::vector<double> &def) const
{
    return getList(*this, name, def, parseDouble);
}

} // namespace sbn
