#include "circuit/qasm.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "circuit/lower.hh"

namespace reqisc::circuit
{

namespace
{

std::string_view
trim(std::string_view s)
{
    const size_t b = s.find_first_not_of(kWhitespace);
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(kWhitespace) - b + 1);
}

/** `parse` (std::stoi or std::stod) over the whole trimmed token. */
template <typename T, typename Parse>
bool
parseToken(std::string_view tok, T &out, Parse parse)
{
    const std::string t(trim(tok));
    if (t.empty())
        return false;
    try {
        size_t used = 0;
        out = parse(t, &used);
        return used == t.size();
    } catch (const std::logic_error &) {
        return false;
    }
}

/**
 * Call `take` on each trimmed token of the comma-separated `list`,
 * stopping at the first error it returns; a blank list has no
 * tokens, and a stray comma leaves an empty one.
 */
template <typename Take>
std::string
eachToken(std::string_view list, Take take)
{
    if (trim(list).empty())
        return {};
    for (;;) {
        const size_t comma = list.find(',');
        if (std::string bad = take(trim(list.substr(0, comma)));
            !bad.empty())
            return bad;
        if (comma == std::string_view::npos)
            return {};
        list.remove_prefix(comma + 1);
    }
}

} // namespace

bool
parseTokenInt(std::string_view tok, int &out)
{
    return parseToken(tok, out, [](const std::string &t, size_t *used) {
        return std::stoi(t, used);
    });
}

bool
parseTokenDouble(std::string_view tok, double &out)
{
    return parseToken(tok, out, [](const std::string &t, size_t *used) {
        return std::stod(t, used);
    });
}

void
writeGate(std::ostream &os, std::string_view name,
          const std::vector<double> &params,
          const std::vector<int> &qubits)
{
    os << name;
    if (!params.empty()) {
        os << "(";
        for (size_t i = 0; i < params.size(); ++i)
            os << (i ? "," : "") << params[i];
        os << ")";
    }
    os << " ";
    for (size_t i = 0; i < qubits.size(); ++i)
        os << (i ? "," : "") << "q[" << qubits[i] << "]";
}

std::string
splitGate(std::string_view text, std::string_view &name, Gate &g)
{
    name = text.substr(0, std::min(text.find_first_of(kWhitespace),
                                   text.find('(')));
    std::string_view rest = text.substr(name.size());
    if (!rest.empty() && rest.front() == '(') {
        const size_t close = rest.find(')');
        if (close == std::string_view::npos)
            return "unterminated parameter list";
        const std::string bad = eachToken(
            rest.substr(1, close - 1), [&](std::string_view tok) {
                double v = 0.0;
                if (!parseTokenDouble(tok, v))
                    return "bad number '" + std::string(tok) + "'";
                g.params.push_back(v);
                return std::string();
            });
        if (!bad.empty())
            return bad;
        rest.remove_prefix(close + 1);
    }
    return eachToken(rest, [&](std::string_view tok) {
        if (!tok.starts_with("q["))
            return "bad operand '" + std::string(tok) + "'";
        const size_t rb = tok.find(']');
        if (rb == std::string_view::npos)
            return std::string("unterminated qubit operand");
        if (rb + 1 != tok.size())
            return "bad operand '" + std::string(tok) + "'";
        const std::string_view index = tok.substr(2, rb - 2);
        int q = 0;
        if (!parseTokenInt(index, q))
            return "bad integer '" + std::string(index) + "'";
        g.qubits.push_back(q);
        return std::string();
    });
}

std::string
toQasm(const Circuit &input)
{
    // Expand opaque matrix payloads first so every line is textual.
    bool has_u4 = false;
    for (const Gate &g : input)
        if (g.op == Op::U4)
            has_u4 = true;
    const Circuit c = has_u4 ? expandToCanU3(input) : input;

    std::ostringstream os;
    os << "OPENQASM 2.0;\n";
    os << "qreg q[" << c.numQubits() << "];\n";
    os.precision(17);
    for (const Gate &g : c) {
        writeGate(os, opName(g.op), g.params, g.qubits);
        os << ";\n";
    }
    return os.str();
}

Circuit
fromQasm(const std::string &text)
{
    Circuit c;
    int lineno = 0;
    auto fail = [&](const std::string &msg) {
        throw std::runtime_error("qasm parse error at line " +
                                 std::to_string(lineno) + ": " + msg);
    };
    for (std::string_view rest = text; !rest.empty();) {
        const size_t nl = rest.find('\n');
        std::string_view line = rest.substr(0, nl);
        rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                        : nl + 1);
        ++lineno;
        // Strip comments and whitespace.
        line = trim(line.substr(0, line.find("//")));
        if (line.empty() || line.starts_with("OPENQASM"))
            continue;
        if (line.back() != ';')
            fail("missing ';'");
        line.remove_suffix(1);
        if (line.starts_with("qreg")) {
            const size_t lb = line.find('[');
            const size_t rb = line.find(']');
            if (lb == std::string_view::npos ||
                rb == std::string_view::npos || rb < lb)
                fail("malformed qreg");
            // The dialect has one register, q, and every operand reads
            // q[i]: another name or a second register would lose or
            // misread the gates around it.
            if (c.numQubits() > 0)
                fail("a second qreg: a program declares one register, q");
            const std::string_view reg = trim(line.substr(4, lb - 4));
            if (reg != "q")
                fail("register '" + std::string(reg) +
                     "': a program declares one register, q");
            const std::string_view size = line.substr(lb + 1, rb - lb - 1);
            int n = 0;
            if (!parseTokenInt(size, n))
                fail("bad integer '" + std::string(size) + "'");
            if (n <= 0)
                fail("qreg size must be positive");
            c = Circuit(n);
            continue;
        }
        Gate g;
        std::string_view name;
        if (const std::string bad = splitGate(line, name, g); !bad.empty())
            fail(bad);
        if (!opFromName(name, g.op))
            fail("unknown op '" + std::string(name) + "'");
        if (c.numQubits() == 0)
            fail("gate before qreg declaration");
        if (const std::string bad = gateError(g, c.numQubits());
            !bad.empty())
            fail(bad);
        c.add(std::move(g));
    }
    return c;
}

} // namespace reqisc::circuit
