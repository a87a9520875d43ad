#include "suite/suite.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "qmath/random.hh"

namespace reqisc::suite
{

using circuit::Circuit;
using circuit::Gate;
using qmath::Rng;

namespace
{

constexpr double kPi = std::numbers::pi;

std::string
nameOf(const std::string &cat, int a, int b = -1)
{
    std::string n = cat + "_" + std::to_string(a);
    if (b >= 0)
        n += "_" + std::to_string(b);
    return n;
}

} // namespace

Benchmark
makeAlu(int qubits, int units, unsigned seed)
{
    assert(qubits >= 4);
    Rng rng(seed);
    std::uniform_int_distribution<int> dq(0, qubits - 1);
    std::uniform_int_distribution<int> kind(0, 5);
    Circuit c(qubits);
    for (int u = 0; u < units; ++u) {
        int a = dq(rng), b = dq(rng), t = dq(rng);
        while (b == a)
            b = dq(rng);
        while (t == a || t == b)
            t = dq(rng);
        switch (kind(rng)) {
          case 0:
          case 1:
            c.add(Gate::ccx(a, b, t));
            break;
          case 2:
            c.add(Gate::cx(a, t));
            break;
          case 3:
            c.add(Gate::cx(b, t));
            c.add(Gate::x(a));
            break;
          case 4:
            c.add(Gate::peres(a, b, t));
            break;
          default:
            c.add(Gate::x(t));
            c.add(Gate::ccx(a, b, t));
            break;
        }
    }
    Benchmark bm;
    bm.name = nameOf("alu", qubits, static_cast<int>(seed % 97));
    bm.category = "alu";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeBitAdder(int bits)
{
    // a[i], b[i], carry chain c[i]; result in b, carries computed and
    // uncomputed like a textbook carry-save adder.
    const int n = 3 * bits + 1;
    Circuit c(n);
    auto qa = [&](int i) { return i; };
    auto qb = [&](int i) { return bits + i; };
    auto qc = [&](int i) { return 2 * bits + i; };
    for (int i = 0; i < bits; ++i) {
        c.add(Gate::ccx(qa(i), qb(i), qc(i + 1)));
        c.add(Gate::cx(qa(i), qb(i)));
        c.add(Gate::ccx(qc(i), qb(i), qc(i + 1)));
        c.add(Gate::cx(qc(i), qb(i)));
    }
    // Uncompute intermediate carries (keep the final one).
    for (int i = bits - 2; i >= 0; --i)
        c.add(Gate::ccx(qa(i), qb(i), qc(i + 1)));
    Benchmark bm;
    bm.name = nameOf("bit_adder", bits);
    bm.category = "bit_adder";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeComparator(int bits, unsigned seed)
{
    // a > b via borrow propagation: x-conjugated CCX cascade.
    Rng rng(seed);
    const int n = 2 * bits + 2;
    Circuit c(n);
    auto qa = [&](int i) { return i; };
    auto qb = [&](int i) { return bits + i; };
    const int borrow = 2 * bits;
    const int out = 2 * bits + 1;
    for (int i = 0; i < bits; ++i) {
        c.add(Gate::x(qa(i)));
        c.add(Gate::ccx(qa(i), qb(i), borrow));
        c.add(Gate::x(qa(i)));
        c.add(Gate::cx(qb(i), qa(i)));
    }
    c.add(Gate::cx(borrow, out));
    // Uncompute in reverse.
    for (int i = bits - 1; i >= 0; --i) {
        c.add(Gate::cx(qb(i), qa(i)));
        c.add(Gate::x(qa(i)));
        c.add(Gate::ccx(qa(i), qb(i), borrow));
        c.add(Gate::x(qa(i)));
    }
    Benchmark bm;
    bm.name = nameOf("comparator", bits, static_cast<int>(seed % 97));
    bm.category = "comparator";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeEncoding(int inputs, unsigned seed)
{
    // One-hot -> binary encoder: CX fan-in plus CCX parity fixes.
    Rng rng(seed);
    const int outs = std::max(
        2, static_cast<int>(std::ceil(std::log2(inputs + 1))));
    const int n = inputs + outs;
    Circuit c(n);
    for (int i = 0; i < inputs; ++i)
        for (int b = 0; b < outs; ++b)
            if ((i + 1) & (1 << b))
                c.add(Gate::cx(i, inputs + b));
    std::uniform_int_distribution<int> di(0, inputs - 1);
    for (int k = 0; k + 1 < inputs; ++k) {
        int a = di(rng), b = di(rng);
        while (b == a)
            b = di(rng);
        c.add(Gate::ccx(a, b, inputs + (k % outs)));
    }
    Benchmark bm;
    bm.name = nameOf("encoding", n, static_cast<int>(seed % 97));
    bm.category = "encoding";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeGrover(int search_qubits, int iterations)
{
    // k search qubits + (k-2) clean ancillas for the MCX ladder.
    const int k = search_qubits;
    const int n = k + std::max(0, k - 2);
    Circuit c(n);
    std::vector<int> controls(k);
    for (int i = 0; i < k; ++i) {
        controls[i] = i;
        c.add(Gate::h(i));
    }
    for (int it = 0; it < iterations; ++it) {
        // Oracle: phase flip on |11..1> via H-MCX-H on the last wire.
        c.add(Gate::h(k - 1));
        c.add(Gate::mcx(std::vector<int>(controls.begin(),
                                         controls.end() - 1),
                        k - 1));
        c.add(Gate::h(k - 1));
        // Diffusion.
        for (int i = 0; i < k; ++i) {
            c.add(Gate::h(i));
            c.add(Gate::x(i));
        }
        c.add(Gate::h(k - 1));
        c.add(Gate::mcx(std::vector<int>(controls.begin(),
                                         controls.end() - 1),
                        k - 1));
        c.add(Gate::h(k - 1));
        for (int i = 0; i < k; ++i) {
            c.add(Gate::x(i));
            c.add(Gate::h(i));
        }
    }
    Benchmark bm;
    bm.name = nameOf("grover", k);
    bm.category = "grover";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeHwb(int wires, unsigned seed)
{
    // Controlled cyclic-shift network: layers of CSWAPs whose control
    // walks across the register (hidden-weighted-bit flavour).
    Rng rng(seed);
    std::uniform_int_distribution<int> dq(0, wires - 1);
    Circuit c(wires);
    const int layers = wires;
    for (int l = 0; l < layers; ++l) {
        const int ctl = l % wires;
        for (int i = 0; i < wires - 2; i += 2) {
            int a = (ctl + 1 + i) % wires;
            int b = (ctl + 2 + i) % wires;
            if (a == ctl || b == ctl || a == b)
                continue;
            c.add(Gate::cswap(ctl, a, b));
        }
        // The target's draws first: the order every pinned artifact
        // was drawn in (tools/check_rng_draws.py).
        const int probe = dq(rng);
        const int target =
            (probe + 1) % wires == 0 ? (wires - 1) : dq(rng);
        const int control = dq(rng);
        c.add(Gate::cx(control, target));
    }
    Benchmark bm;
    bm.name = nameOf("hwb", wires, static_cast<int>(seed % 97));
    bm.category = "hwb";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeModulo(int bits)
{
    // Incrementer mod 2^bits: MCX cascade; extra ancillas for MCX.
    const int anc = std::max(0, bits - 3);
    const int n = bits + anc;
    Circuit c(n);
    for (int k = bits - 1; k >= 1; --k) {
        std::vector<int> controls;
        for (int i = 0; i < k; ++i)
            controls.push_back(i);
        c.add(Gate::mcx(controls, k));
    }
    c.add(Gate::x(0));
    Benchmark bm;
    bm.name = nameOf("modulo", n);
    bm.category = "modulo";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeMult(int bits)
{
    // Shift-and-add: product accumulator, controlled ripple adds.
    // Qubits: a[bits], b[bits], p[2*bits] (accumulator).
    const int n = 4 * bits;
    Circuit c(n);
    auto qa = [&](int i) { return i; };
    auto qb = [&](int i) { return bits + i; };
    auto qp = [&](int i) { return 2 * bits + i; };
    for (int i = 0; i < bits; ++i)
        for (int j = 0; j < bits; ++j) {
            // p[i+j] ^= a[i] & b[j] plus carry into p[i+j+1].
            c.add(Gate::ccx(qa(i), qb(j), qp(i + j)));
            if (i + j + 1 < 2 * bits)
                c.add(Gate::ccx(qp(i + j), qa(i), qp(i + j + 1)));
        }
    Benchmark bm;
    bm.name = nameOf("mult", n);
    bm.category = "mult";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeQft(int n)
{
    Circuit c(n);
    for (int i = 0; i < n; ++i) {
        c.add(Gate::h(i));
        for (int j = i + 1; j < n; ++j)
            c.add(Gate::cp(j, i, kPi / (1 << (j - i))));
    }
    Benchmark bm;
    bm.name = nameOf("qft", n);
    bm.category = "qft";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeRippleAdd(int bits)
{
    // Cuccaro ripple-carry adder: qubits c0, a[i]/b[i] interleaved,
    // final carry z. MAJ / UMA ladder.
    const int n = 2 * bits + 2;
    Circuit c(n);
    const int c0 = 0;
    auto qb = [&](int i) { return 1 + 2 * i; };
    auto qa = [&](int i) { return 2 + 2 * i; };
    const int z = 2 * bits + 1;
    auto maj = [&](int x, int y, int t) {
        c.add(Gate::cx(t, y));
        c.add(Gate::cx(t, x));
        c.add(Gate::ccx(x, y, t));
    };
    auto uma = [&](int x, int y, int t) {
        c.add(Gate::ccx(x, y, t));
        c.add(Gate::cx(t, x));
        c.add(Gate::cx(x, y));
    };
    maj(c0, qb(0), qa(0));
    for (int i = 1; i < bits; ++i)
        maj(qa(i - 1), qb(i), qa(i));
    c.add(Gate::cx(qa(bits - 1), z));
    for (int i = bits - 1; i >= 1; --i)
        uma(qa(i - 1), qb(i), qa(i));
    uma(c0, qb(0), qa(0));
    Benchmark bm;
    bm.name = nameOf("rip_add", n);
    bm.category = "ripple_add";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeSquare(int bits)
{
    // Squaring = multiplier with a shared operand (extra CCX traffic).
    const int n = 3 * bits + std::max(1, bits - 1);
    Circuit c(n);
    auto qa = [&](int i) { return i; };
    auto qp = [&](int i) { return bits + i; };
    for (int i = 0; i < bits; ++i)
        for (int j = i; j < bits; ++j) {
            const int tgt = qp(std::min(i + j, 2 * bits - 1));
            if (i == j) {
                c.add(Gate::cx(qa(i), tgt));
            } else {
                c.add(Gate::ccx(qa(i), qa(j), tgt));
                if (i + j + 1 < 2 * bits)
                    c.add(Gate::ccx(tgt, qa(i), qp(i + j + 1)));
            }
        }
    Benchmark bm;
    bm.name = nameOf("square", n);
    bm.category = "square";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeSym(int inputs, unsigned seed)
{
    // Symmetric (counting) function: popcount accumulation into a
    // small counter register, then a threshold MCX.
    Rng rng(seed);
    const int cnt = std::max(
        2, static_cast<int>(std::ceil(std::log2(inputs + 1))));
    const int n = inputs + cnt + std::max(0, cnt - 2);
    Circuit c(n);
    auto qc = [&](int i) { return inputs + i; };
    for (int i = 0; i < inputs; ++i) {
        // Increment counter controlled on input i (ripple).
        for (int k = cnt - 1; k >= 1; --k) {
            std::vector<int> controls = {i};
            for (int b2 = 0; b2 < k; ++b2)
                controls.push_back(qc(b2));
            c.add(Gate::mcx(controls, qc(k)));
        }
        c.add(Gate::cx(i, qc(0)));
    }
    Benchmark bm;
    bm.name = nameOf("sym", inputs, static_cast<int>(seed % 97));
    bm.category = "sym";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeTof(int controls)
{
    const int n = controls + 1 + std::max(0, controls - 2);
    Circuit c(n);
    std::vector<int> ctl(controls);
    for (int i = 0; i < controls; ++i)
        ctl[i] = i;
    c.add(Gate::mcx(ctl, controls));
    Benchmark bm;
    bm.name = nameOf("tof", n);
    bm.category = "tof";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makeUrf(int wires, int units, unsigned seed)
{
    Rng rng(seed);
    std::uniform_int_distribution<int> dq(0, wires - 1);
    std::uniform_int_distribution<int> kind(0, 3);
    Circuit c(wires);
    for (int u = 0; u < units; ++u) {
        int a = dq(rng), b = dq(rng), t = dq(rng);
        while (b == a)
            b = dq(rng);
        while (t == a || t == b)
            t = dq(rng);
        switch (kind(rng)) {
          case 0:
            c.add(Gate::ccx(a, b, t));
            break;
          case 1:
            c.add(Gate::cswap(a, b, t));
            break;
          case 2:
            c.add(Gate::cx(a, t));
            break;
          default:
            c.add(Gate::x(a));
            c.add(Gate::ccx(a, b, t));
            c.add(Gate::x(a));
            break;
        }
    }
    Benchmark bm;
    bm.name = nameOf("urf", wires, static_cast<int>(seed % 97));
    bm.category = "urf";
    bm.circuit = std::move(c);
    return bm;
}

Benchmark
makePf(int n, int steps, unsigned seed)
{
    // Trotterized transverse-field Ising chain: uniform couplings
    // (the physical model), small per-step angles — the near-identity
    // regime that exercises gate mirroring.
    Rng rng(seed);
    std::uniform_real_distribution<double> dj(0.05, 0.15);
    const double j = dj(rng), h = dj(rng);
    Circuit c(n);
    for (int s = 0; s < steps; ++s) {
        for (int i = 0; i + 1 < n; ++i)
            c.add(Gate::rzz(i, i + 1, j));
        for (int i = 0; i < n; ++i)
            c.add(Gate::rx(i, h));
    }
    Benchmark bm;
    bm.name = nameOf("pf", n, steps);
    bm.category = "pf";
    bm.circuit = std::move(c);
    bm.isTypeII = true;
    return bm;
}

Benchmark
makeQaoa(int n, int layers, unsigned seed)
{
    Rng rng(seed);
    // Random 3-regular-ish graph: each vertex gets ~3 edges.
    std::vector<std::pair<int, int>> edges;
    std::uniform_int_distribution<int> dq(0, n - 1);
    std::vector<int> degree(n, 0);
    int guard = 0;
    while (edges.size() < static_cast<size_t>(3 * n / 2) &&
           guard++ < 40 * n) {
        int a = dq(rng), b = dq(rng);
        if (a == b || degree[a] >= 3 || degree[b] >= 3)
            continue;
        const std::pair<int, int> e = std::minmax(a, b);
        if (std::find(edges.begin(), edges.end(), e) != edges.end())
            continue;
        edges.push_back(e);
        ++degree[a];
        ++degree[b];
    }
    std::uniform_real_distribution<double> ang(0.1, 0.9);
    Circuit c(n);
    for (int i = 0; i < n; ++i)
        c.add(Gate::h(i));
    for (int l = 0; l < layers; ++l) {
        const double gamma = ang(rng), beta = ang(rng);
        for (const auto &[a, b] : edges)
            c.add(Gate::rzz(a, b, gamma));
        for (int i = 0; i < n; ++i)
            c.add(Gate::rx(i, 2.0 * beta));
    }
    Benchmark bm;
    bm.name = nameOf("qaoa", n, layers);
    bm.category = "qaoa";
    bm.circuit = std::move(c);
    bm.isTypeII = true;
    return bm;
}

Benchmark
makeUccsd(int n, int excitations, unsigned seed)
{
    // Pauli-exponential ansatz: CX ladders around RZ(theta), the
    // standard UCCSD compilation pattern.
    Rng rng(seed);
    std::uniform_int_distribution<int> dq(0, n - 1);
    std::uniform_real_distribution<double> ang(0.02, 0.3);
    std::uniform_int_distribution<int> len(2, std::min(4, n));
    Circuit c(n);
    for (int e = 0; e < excitations; ++e) {
        // Random ordered support of 2..4 qubits.
        const int k = len(rng);
        std::vector<int> support;
        while (static_cast<int>(support.size()) < k) {
            int q = dq(rng);
            if (std::find(support.begin(), support.end(), q) ==
                support.end())
                support.push_back(q);
        }
        std::sort(support.begin(), support.end());
        // Basis changes.
        for (size_t i = 0; i < support.size(); ++i)
            if (i % 2 == 0)
                c.add(Gate::h(support[i]));
        for (size_t i = 0; i + 1 < support.size(); ++i)
            c.add(Gate::cx(support[i], support[i + 1]));
        c.add(Gate::rz(support.back(), ang(rng)));
        for (size_t i = support.size() - 1; i >= 1; --i)
            c.add(Gate::cx(support[i - 1], support[i]));
        for (size_t i = 0; i < support.size(); ++i)
            if (i % 2 == 0)
                c.add(Gate::h(support[i]));
    }
    Benchmark bm;
    bm.name = nameOf("uccsd", n, excitations);
    bm.category = "uccsd";
    bm.circuit = std::move(c);
    bm.isTypeII = true;
    return bm;
}

std::vector<Benchmark>
standardSuite(bool full)
{
    std::vector<Benchmark> out;
    const int scale = full ? 2 : 1;
    // One to three instances per category; sizes track the lower end
    // of Table 1 (full doubles the larger instances).
    out.push_back(makeAlu(5, 12, 11));
    out.push_back(makeAlu(6, 30 * scale, 13));
    out.push_back(makeBitAdder(4));
    out.push_back(makeBitAdder(6 * scale));
    out.push_back(makeComparator(3, 17));
    out.push_back(makeComparator(4, 19));
    out.push_back(makeEncoding(5, 23));
    out.push_back(makeEncoding(8, 29));
    out.push_back(makeGrover(5));
    out.push_back(makeHwb(6, 31));
    out.push_back(makeHwb(8, 37));
    out.push_back(makeModulo(5));
    out.push_back(makeMult(3 * scale));
    out.push_back(makePf(10, 3 * scale, 41));
    out.push_back(makeQaoa(8, 2, 43));
    out.push_back(makeQaoa(12, 3 * scale, 47));
    out.push_back(makeQft(8));
    out.push_back(makeQft(full ? 16 : 12));
    out.push_back(makeRippleAdd(5));
    out.push_back(makeRippleAdd(full ? 15 : 8));
    out.push_back(makeSquare(3 * scale));
    out.push_back(makeSym(6, 53));
    out.push_back(makeTof(4));
    out.push_back(makeTof(8));
    out.push_back(makeUccsd(8, 6 * scale, 59));
    out.push_back(makeUccsd(12, 10 * scale, 61));
    out.push_back(makeUrf(8, 120 * scale, 67));
    return out;
}

std::vector<Benchmark>
smallSuite()
{
    std::vector<Benchmark> out;
    out.push_back(makeAlu(5, 10, 71));
    out.push_back(makeComparator(3, 73));
    out.push_back(makeEncoding(4, 79));
    out.push_back(makeHwb(5, 83));
    out.push_back(makeModulo(4));
    out.push_back(makeQft(5));
    out.push_back(makeRippleAdd(3));
    out.push_back(makeTof(3));
    out.push_back(makePf(6, 2, 89));
    out.push_back(makeQaoa(6, 1, 97));
    out.push_back(makeUccsd(6, 3, 101));
    out.push_back(makeGrover(4, 1));
    return out;
}

std::vector<Benchmark>
mediumSuite()
{
    std::vector<Benchmark> out;
    out.push_back(makeAlu(6, 25, 103));
    out.push_back(makeBitAdder(5));
    out.push_back(makeComparator(4, 107));
    out.push_back(makeEncoding(6, 109));
    out.push_back(makeGrover(5));
    out.push_back(makeHwb(7, 113));
    out.push_back(makeModulo(5));
    out.push_back(makeMult(3));
    out.push_back(makePf(10, 2, 127));
    out.push_back(makeQaoa(8, 2, 131));
    out.push_back(makeQft(8));
    out.push_back(makeRippleAdd(5));
    out.push_back(makeSym(6, 137));
    out.push_back(makeTof(5));
    out.push_back(makeUccsd(10, 6, 139));
    out.push_back(makeUrf(8, 60, 149));
    return out;
}

} // namespace reqisc::suite
