#include "common/cli.hh"

#include <optional>
#include <sstream>

#include "common/env.hh"

namespace rsep::cli
{

Parsed
parse(int argc, char **argv, const std::vector<Option> &options)
{
    Parsed out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            out.help = true;
            return out;
        }
        if (a.size() < 2 || a[0] != '-') {
            out.positional.push_back(a);
            continue;
        }

        // The flag as spelled (for diagnostics) and its inline value.
        std::string flag;
        std::optional<std::string> value;
        const Option *opt = nullptr;
        if (a[1] == '-') {
            size_t eq = a.find('=');
            flag = a.substr(0, eq);
            if (eq != std::string::npos)
                value = a.substr(eq + 1);
            for (const Option &o : options)
                if (flag.compare(2, std::string::npos, o.name) == 0)
                    opt = &o;
        } else {
            flag = a.substr(0, 2);
            if (a.size() > 2)
                value = a.substr(2);
            for (const Option &o : options)
                if (o.shortName == a[1])
                    opt = &o;
        }
        if (!opt) {
            out.error = "unknown option '" + a + "'";
            return out;
        }

        if (!opt->metavar) {
            if (value) {
                out.error = flag + " does not take a value";
                return out;
            }
            value.emplace();
        } else if (!value) {
            if (i + 1 >= argc) {
                out.error = flag + " requires a value (" + opt->metavar +
                            ")";
                return out;
            }
            value = argv[++i];
        }
        if (opt->metavar && value->empty()) {
            out.error = flag + " value is empty (expected " +
                        opt->metavar + ")";
            return out;
        }
        std::string err = opt->apply(*value);
        if (!err.empty()) {
            out.error = "--" + std::string(opt->name) + ": " + err;
            return out;
        }
    }
    return out;
}

namespace
{

/** One --help row: the flag column, then @p help word-wrapped. */
void
printRow(std::ostream &os, const std::string &label, const std::string &help)
{
    constexpr size_t helpColumn = 29, width = 78;
    std::string line = "  " + label;
    if (line.size() + 2 > helpColumn) {
        os << line << "\n";
        line.clear();
    }
    line.resize(helpColumn, ' ');
    bool empty = true;
    std::istringstream words(help);
    std::string word;
    while (words >> word) {
        if (!empty && line.size() + 1 + word.size() > width) {
            os << line << "\n";
            line.assign(helpColumn, ' ');
            empty = true;
        }
        if (!empty)
            line += ' ';
        line += word;
        empty = false;
    }
    os << line << "\n";
}

} // namespace

void
printOptions(std::ostream &os, const std::vector<Option> &options,
             bool help_line)
{
    for (const Option &o : options) {
        std::string label = std::string("--") + o.name;
        if (o.metavar)
            label += std::string(" ") + o.metavar;
        if (o.shortName) {
            label += std::string(", -") + o.shortName;
            if (o.metavar)
                label += o.metavar;
        }
        printRow(os, label, o.help);
    }
    if (help_line)
        printRow(os, "--help, -h", "show this help");
}

Apply
store(std::string &field)
{
    return [&field](const std::string &v) {
        field = v;
        return std::string();
    };
}

Apply
store(bool &field)
{
    return [&field](const std::string &) {
        field = true;
        return std::string();
    };
}

Apply
storeCount(u64 &field, u64 lo, u64 hi)
{
    return [&field, lo, hi](const std::string &v) {
        return parseCount(v, field, lo, hi);
    };
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
parseCount(const std::string &s, u64 &out, u64 lo, u64 hi)
{
    u64 v = 0;
    if (parseU64(s, v) && v >= lo && v <= hi) {
        out = v;
        return {};
    }
    std::string want = "an unsigned integer";
    if (hi != std::numeric_limits<u64>::max())
        want = "an integer in " + std::to_string(lo) + ".." +
               std::to_string(hi);
    else if (lo > 0)
        want += " >= " + std::to_string(lo);
    return "invalid count '" + s + "' (expected " + want + ")";
}

} // namespace rsep::cli
