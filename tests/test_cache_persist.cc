/**
 * @file
 * Tests for the persistent synth/pulse caches (service/cache.hh +
 * service/persist.hh): bit-exact round-trip save/load, rejection of
 * files with a mismatched version / fingerprint scale / coupling /
 * tolerance, clean cold starts on missing, truncated and corrupted
 * files, atomic saves that never leave partial files behind, and the
 * service-level `cacheDir` warm start (a second CompileService loads
 * what the first one saved and compiles bit-identically out of cache).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/qasm.hh"
#include "qmath/random.hh"
#include "service/cache.hh"
#include "service/persist.hh"
#include "service/service.hh"
#include "synth/synthesis.hh"
#include "uarch/calibration.hh"
#include "weyl/weyl.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::qmath;

namespace
{

namespace fs = std::filesystem;

// Mirrors of the on-disk identity constants in service/cache.cc. The
// EmptyFileRoundTrips tests below craft headers from these and demand
// load() accepts them, so a drift between the mirrors and the real
// constants fails loudly here instead of silently invalidating the
// version-mismatch tests.
constexpr std::uint32_t kSynthMagic = 0x43535152u; // "RQSC"
constexpr std::uint32_t kPulseMagic = 0x43505152u; // "RQPC"
constexpr std::uint32_t kFormatVersion = 1;
constexpr double kFingerprintScale = 1e12;

/** A fresh, empty scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "reqisc_persist_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Every file under `dir`, by filename. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    return names;
}

/** Exact equality of two matrices (the persistence contract). */
void
expectSameMatrix(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(a(i, j).real(), b(i, j).real());
            EXPECT_EQ(a(i, j).imag(), b(i, j).imag());
        }
}

/** Exact equality of two gate streams, payload matrices included. */
void
expectSameGates(const std::vector<circuit::Gate> &a,
                const std::vector<circuit::Gate> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].qubits, b[i].qubits);
        EXPECT_EQ(a[i].params, b[i].params);
        ASSERT_EQ(a[i].payload != nullptr, b[i].payload != nullptr);
        if (a[i].payload)
            expectSameMatrix(a[i].payload->matrix(),
                             b[i].payload->matrix());
    }
}

/** Populate `cache` with `n` synthesized random 8x8 targets. */
std::vector<std::pair<Matrix, synth::SynthesisResult>>
populateSynthCache(service::SynthCache &cache, int n,
                   unsigned rng_seed)
{
    Rng rng(rng_seed);
    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &cache;
    std::vector<std::pair<Matrix, synth::SynthesisResult>> out;
    for (int i = 0; i < n; ++i) {
        const Matrix target = randomUnitary(8, rng);
        synth::SynthesisResult r =
            synth::synthesizeBlock(target, {0, 1, 2}, opts);
        EXPECT_TRUE(r.success);
        out.emplace_back(target, std::move(r));
    }
    return out;
}

} // namespace

// ---- SynthCache persistence --------------------------------------------

TEST(SynthCachePersist, RoundTripServesBitIdenticalEntries)
{
    const std::string dir = scratchDir("synth_roundtrip");
    const std::string path = dir + "/synth.cache";

    service::SynthCache a;
    const auto entries = populateSynthCache(a, 3, 23);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_TRUE(a.save(path));

    service::SynthCache b;
    EXPECT_TRUE(b.load(path));
    EXPECT_EQ(b.size(), a.size());

    // Every reloaded entry serves a hit with exactly the gates the
    // original search produced (lookup re-verifies the rebuilt
    // unitary against the target, so a hit also proves the doubles
    // round-tripped bit-exactly).
    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &b;
    for (const auto &[target, first] : entries) {
        synth::SynthesisResult again =
            synth::synthesizeBlock(target, {0, 1, 2}, opts);
        ASSERT_TRUE(again.success);
        EXPECT_EQ(again.blockCount, first.blockCount);
        EXPECT_EQ(again.infidelity, first.infidelity);
        expectSameGates(again.gates, first.gates);
    }
    EXPECT_EQ(b.stats().hits, 3);
    EXPECT_EQ(b.stats().misses, 0);
}

TEST(SynthCachePersist, LoadMergesAndLiveEntriesWin)
{
    const std::string dir = scratchDir("synth_merge");
    const std::string path = dir + "/synth.cache";

    service::SynthCache a;
    populateSynthCache(a, 2, 29);
    ASSERT_TRUE(a.save(path));

    // A cache with one overlapping live entry and one of its own.
    service::SynthCache b;
    populateSynthCache(b, 3, 29);  // same seed: first two overlap
    ASSERT_EQ(b.size(), 3u);
    EXPECT_TRUE(b.load(path));
    EXPECT_EQ(b.size(), 3u);  // duplicates skipped, nothing lost
}

TEST(SynthCachePersist, MissingFileIsACleanColdStart)
{
    const std::string dir = scratchDir("synth_missing");
    service::SynthCache cache;
    EXPECT_FALSE(cache.load(dir + "/does_not_exist.cache"));
    EXPECT_EQ(cache.size(), 0u);
    // The cache stays fully usable after the failed load.
    populateSynthCache(cache, 1, 31);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SynthCachePersist, TruncatedFileIsRejectedWithoutSideEffects)
{
    const std::string dir = scratchDir("synth_truncated");
    const std::string path = dir + "/synth.cache";

    service::SynthCache a;
    populateSynthCache(a, 2, 37);
    ASSERT_TRUE(a.save(path));
    const std::string bytes = test::readFile(path);

    // Every truncation point must fail cleanly — header, mid-entry
    // and mid-checksum alike.
    for (size_t keep :
         {size_t{0}, size_t{3}, size_t{9}, bytes.size() / 2,
          bytes.size() - 1}) {
        writeFile(path, bytes.substr(0, keep));
        service::SynthCache b;
        EXPECT_FALSE(b.load(path)) << "kept " << keep << " bytes";
        EXPECT_EQ(b.size(), 0u);
    }
}

TEST(SynthCachePersist, CorruptedByteFailsTheChecksum)
{
    const std::string dir = scratchDir("synth_corrupt");
    const std::string path = dir + "/synth.cache";

    service::SynthCache a;
    populateSynthCache(a, 1, 41);
    ASSERT_TRUE(a.save(path));
    std::string bytes = test::readFile(path);

    // Flip one byte in the middle of the payload: the whole-file
    // checksum catches it before any field is parsed.
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    writeFile(path, bytes);
    service::SynthCache b;
    EXPECT_FALSE(b.load(path));
    EXPECT_EQ(b.size(), 0u);
}

TEST(SynthCachePersist, EmptyFileWithCurrentHeaderRoundTrips)
{
    // Guards the mirrored constants at the top of this file: if the
    // real magic / version / scale ever drift from these, this test
    // fails and the mismatch tests below must be updated with it.
    const std::string dir = scratchDir("synth_header");
    const std::string path = dir + "/synth.cache";

    service::persist::Writer w;
    w.u32(kSynthMagic);
    w.u32(kFormatVersion);
    w.f64(kFingerprintScale);
    w.u64(0);
    ASSERT_TRUE(w.commit(path));

    service::SynthCache cache;
    EXPECT_TRUE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SynthCachePersist, FutureFormatVersionIsRejected)
{
    // A validly-checksummed file at version+1 (a simple byte flip
    // would fail the checksum first and test the corruption path
    // instead of the version check).
    const std::string dir = scratchDir("synth_version");
    const std::string path = dir + "/synth.cache";

    service::persist::Writer w;
    w.u32(kSynthMagic);
    w.u32(kFormatVersion + 1);
    w.f64(kFingerprintScale);
    w.u64(0);
    ASSERT_TRUE(w.commit(path));

    service::SynthCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SynthCachePersist, WrongMagicIsRejected)
{
    const std::string dir = scratchDir("synth_magic");
    const std::string path = dir + "/synth.cache";

    service::persist::Writer w;
    w.u32(kPulseMagic);  // a pulse file fed to the synth cache
    w.u32(kFormatVersion);
    w.f64(kFingerprintScale);
    w.u64(0);
    ASSERT_TRUE(w.commit(path));

    service::SynthCache cache;
    EXPECT_FALSE(cache.load(path));
}

TEST(SynthCachePersist, FingerprintScaleMismatchIsRejected)
{
    // Keys quantized at a different scale mean different clustering;
    // such a file must be invalidated wholesale.
    const std::string dir = scratchDir("synth_scale");
    const std::string path = dir + "/synth.cache";

    service::persist::Writer w;
    w.u32(kSynthMagic);
    w.u32(kFormatVersion);
    w.f64(1e9);
    w.u64(0);
    ASSERT_TRUE(w.commit(path));

    service::SynthCache cache;
    EXPECT_FALSE(cache.load(path));
}

TEST(SynthCachePersist, AtomicSaveLeavesNoPartialFiles)
{
    const std::string dir = scratchDir("synth_atomic");
    const std::string path = dir + "/synth.cache";

    service::SynthCache cache;
    populateSynthCache(cache, 2, 43);
    ASSERT_TRUE(cache.save(path));
    // Saving over an existing file must also go through the rename.
    ASSERT_TRUE(cache.save(path));

    const std::vector<std::string> names = listDir(dir);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "synth.cache");
}

TEST(SynthCachePersist, SaveLoadSaveIsByteStable)
{
    // save() orders entries deterministically by key and every field
    // round-trips bit-exactly, so saving a reloaded cache reproduces
    // the original file byte for byte.
    const std::string dir = scratchDir("synth_canonical");

    service::SynthCache a;
    populateSynthCache(a, 3, 47);
    ASSERT_TRUE(a.save(dir + "/a.cache"));

    service::SynthCache b;
    ASSERT_TRUE(b.load(dir + "/a.cache"));
    ASSERT_TRUE(b.save(dir + "/b.cache"));

    EXPECT_EQ(test::readFile(dir + "/a.cache"),
              test::readFile(dir + "/b.cache"));
}

// ---- PulseCache persistence --------------------------------------------

TEST(PulseCachePersist, RoundTripServesBitIdenticalSolutions)
{
    const std::string dir = scratchDir("pulse_roundtrip");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    uarch::GateScheme scheme(cpl);
    const std::vector<weyl::WeylCoord> coords = {
        weyl::WeylCoord::cnot(), weyl::WeylCoord::iswap()};

    service::PulseCache a(cpl, 1e-6);
    for (const auto &c : coords)
        a.store(c, scheme.solveCoord(c), 0.01);
    ASSERT_EQ(a.size(), coords.size());
    ASSERT_TRUE(a.save(path));

    service::PulseCache b(cpl, 1e-6);
    EXPECT_TRUE(b.load(path));
    EXPECT_EQ(b.size(), a.size());

    for (const auto &c : coords) {
        uarch::PulseSolution sa, sb;
        ASSERT_TRUE(a.lookup(c, sa));
        ASSERT_TRUE(b.lookup(c, sb));
        EXPECT_EQ(sb.converged, sa.converged);
        EXPECT_EQ(sb.scheme, sa.scheme);
        EXPECT_EQ(sb.tau, sa.tau);
        EXPECT_EQ(sb.omega1, sa.omega1);
        EXPECT_EQ(sb.omega2, sa.omega2);
        EXPECT_EQ(sb.delta, sa.delta);
        EXPECT_EQ(sb.coordError, sa.coordError);
        EXPECT_EQ(sb.hasCorrections, sa.hasCorrections);
        EXPECT_EQ(sb.target.distance(sa.target), 0.0);
        EXPECT_EQ(sb.effective.distance(sa.effective), 0.0);
        expectSameMatrix(sb.a1, sa.a1);
        expectSameMatrix(sb.a2, sa.a2);
        expectSameMatrix(sb.b1, sa.b1);
        expectSameMatrix(sb.b2, sa.b2);
    }
}

TEST(PulseCachePersist, CouplingMismatchIsRejected)
{
    const std::string dir = scratchDir("pulse_coupling");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling xy = uarch::Coupling::xy(1.0);
    uarch::GateScheme scheme(xy);
    service::PulseCache a(xy, 1e-6);
    a.store(weyl::WeylCoord::cnot(),
            scheme.solveCoord(weyl::WeylCoord::cnot()), 0.01);
    ASSERT_TRUE(a.save(path));

    // A different coupling strength: solutions describe the wrong
    // hardware, the whole file is refused.
    service::PulseCache other(uarch::Coupling::xy(1.25), 1e-6);
    EXPECT_FALSE(other.load(path));
    EXPECT_EQ(other.size(), 0u);

    // The matching cache accepts the very same file.
    service::PulseCache same(xy, 1e-6);
    EXPECT_TRUE(same.load(path));
    EXPECT_EQ(same.size(), 1u);
}

TEST(PulseCachePersist, ToleranceMismatchIsRejected)
{
    const std::string dir = scratchDir("pulse_tol");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    uarch::GateScheme scheme(cpl);
    service::PulseCache a(cpl, 1e-6);
    a.store(weyl::WeylCoord::iswap(),
            scheme.solveCoord(weyl::WeylCoord::iswap()), 0.01);
    ASSERT_TRUE(a.save(path));

    // A coarser tolerance would cluster classes the file's entries
    // were never meant to represent.
    service::PulseCache coarse(cpl, 1e-5);
    EXPECT_FALSE(coarse.load(path));
    EXPECT_EQ(coarse.size(), 0u);
}

TEST(PulseCachePersist, FutureFormatVersionIsRejected)
{
    const std::string dir = scratchDir("pulse_version");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    service::PulseCache probe(cpl, 1e-6);

    service::persist::Writer w;
    w.u32(kPulseMagic);
    w.u32(kFormatVersion + 1);
    w.f64(cpl.a);
    w.f64(cpl.b);
    w.f64(cpl.c);
    w.f64(probe.tolerance());
    w.u64(0);
    ASSERT_TRUE(w.commit(path));

    EXPECT_FALSE(probe.load(path));

    // The same header at the current version is accepted — the
    // mirrored constants above still match the implementation.
    service::persist::Writer ok;
    ok.u32(kPulseMagic);
    ok.u32(kFormatVersion);
    ok.f64(cpl.a);
    ok.f64(cpl.b);
    ok.f64(cpl.c);
    ok.f64(probe.tolerance());
    ok.u64(0);
    ASSERT_TRUE(ok.commit(path));
    EXPECT_TRUE(probe.load(path));
}

TEST(PulseCachePersist, TruncatedAndCorruptFilesColdStart)
{
    const std::string dir = scratchDir("pulse_corrupt");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    uarch::GateScheme scheme(cpl);
    service::PulseCache a(cpl, 1e-6);
    a.store(weyl::WeylCoord::cnot(),
            scheme.solveCoord(weyl::WeylCoord::cnot()), 0.01);
    ASSERT_TRUE(a.save(path));
    const std::string bytes = test::readFile(path);

    writeFile(path, bytes.substr(0, bytes.size() / 2));
    service::PulseCache b(cpl, 1e-6);
    EXPECT_FALSE(b.load(path));
    EXPECT_EQ(b.size(), 0u);

    std::string flipped = bytes;
    flipped[flipped.size() / 3] =
        static_cast<char>(flipped[flipped.size() / 3] ^ 0x5a);
    writeFile(path, flipped);
    service::PulseCache c(cpl, 1e-6);
    EXPECT_FALSE(c.load(path));
    EXPECT_EQ(c.size(), 0u);
}

TEST(PulseCachePersist, AtomicSaveLeavesNoPartialFiles)
{
    const std::string dir = scratchDir("pulse_atomic");
    const std::string path = dir + "/pulse.cache";

    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    uarch::GateScheme scheme(cpl);
    service::PulseCache cache(cpl, 1e-6);
    cache.store(weyl::WeylCoord::cnot(),
                scheme.solveCoord(weyl::WeylCoord::cnot()), 0.01);
    ASSERT_TRUE(cache.save(path));
    ASSERT_TRUE(cache.save(path));

    const std::vector<std::string> names = listDir(dir);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "pulse.cache");
}

// ---- Pinned file bytes -------------------------------------------------

namespace
{

/** FNV-1a of a whole saved file, trailer included. */
std::uint64_t
fileDigest(const std::string &path)
{
    const std::string bytes = test::readFile(path);
    return service::persist::fnv1aBytes(bytes.data(), bytes.size());
}

/** An 8x8 permutation: the identity with rows 6 and 7 exchanged. */
Matrix
toffoliPermutation()
{
    Matrix m = Matrix::identity(8);
    m(6, 6) = m(7, 7) = 0.0;
    m(6, 7) = m(7, 6) = 1.0;
    return m;
}

} // namespace

TEST(SynthCachePersist, SavedBytesArePinned)
{
    // Hand-built entries with exact fields and fixed solve times: a
    // success entry whose gates include a U4 payload, a CAN and a U3,
    // and a failure entry read once (a use the file records). The
    // digest pins the header, the key order, every entry field and
    // the trailer; a change to any of them must bump the version.
    const std::string dir = scratchDir("synth_golden");
    const std::string path = dir + "/synth.cache";

    const Matrix hh = {{0.5, 0.5, 0.5, 0.5},
                       {0.5, -0.5, 0.5, -0.5},
                       {0.5, 0.5, -0.5, -0.5},
                       {0.5, -0.5, -0.5, 0.5}};
    synth::SynthesisResult success;
    success.success = true;
    success.infidelity = 0x1p-45;
    success.blockCount = 2;
    success.gates = {circuit::Gate::u4(0, 1, hh),
                     circuit::Gate::can(1, 2, {0.5, 0.25, 0.125}),
                     circuit::Gate::u3(2, 0.75, -0.5, 0.25)};
    synth::SynthesisResult failure;
    failure.infidelity = 0.5;

    const Complex quarter[4] = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0},
                                {0.0, -1.0}};
    Matrix phases = Matrix::identity(8);
    for (int k = 0; k < 8; ++k)
        phases(k, k) = quarter[k % 4];

    synth::SynthesisOptions opts;
    service::SynthCache cache;
    cache.store(toffoliPermutation(), opts, success, 0.375);
    cache.store(phases, opts, failure, 0.0625);
    synth::SynthesisResult out;
    ASSERT_TRUE(cache.lookup(phases, opts, out));  // no verification
    ASSERT_TRUE(cache.save(path));
    EXPECT_EQ(test::readFile(path).size(), 2636u);
    EXPECT_EQ(fileDigest(path), 0x4c6a69907f559696ull)
        << std::hex << fileDigest(path);
}

TEST(PulseCachePersist, SavedBytesArePinned)
{
    // Two hand-built converged solutions, one with one-qubit
    // corrections, stored with fixed solve times; the first is read
    // once. See SynthCachePersist.SavedBytesArePinned.
    const std::string dir = scratchDir("pulse_golden");
    const std::string path = dir + "/pulse.cache";

    const weyl::WeylCoord c1{0.75, 0.25, 0.125};
    const weyl::WeylCoord c2{0.5, 0.5, -0.25};
    uarch::PulseSolution plain;
    plain.converged = true;
    plain.scheme = uarch::SubScheme::ND;
    plain.tau = 1.5;
    plain.omega1 = 0.25;
    plain.omega2 = -0.125;
    plain.target = plain.effective = c1;
    plain.coordError = 0x1p-30;

    const Complex i{0.0, 1.0};
    uarch::PulseSolution corrected;
    corrected.converged = true;
    corrected.scheme = uarch::SubScheme::EAMinus;
    corrected.tau = 2.25;
    corrected.omega1 = 0.625;
    corrected.delta = -0.375;
    corrected.target = c2;
    corrected.effective = {0.5, 0.5, 0.25};
    corrected.coordError = 0x1p-40;
    corrected.hasCorrections = true;
    corrected.a1 = {{0.0, 1.0}, {1.0, 0.0}};
    corrected.a2 = {{1.0, 0.0}, {0.0, -1.0}};
    corrected.b1 = {{0.0, -i}, {i, 0.0}};
    corrected.b2 = {{1.0, 0.0}, {0.0, i}};

    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    cache.store(c1, plain, 0.5);
    cache.store(c2, corrected, 0.25);
    uarch::PulseSolution out;
    ASSERT_TRUE(cache.lookup(c1, out));
    ASSERT_TRUE(cache.save(path));
    EXPECT_EQ(test::readFile(path).size(), 656u);
    EXPECT_EQ(fileDigest(path), 0x06efaade1de7d6afull)
        << std::hex << fileDigest(path);
}

// ---- Entry counts the file cannot hold ---------------------------------

namespace
{

/** The entry cap of service/persist.cc, which such a count passes. */
constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 22;

/** Raw entry bytes of a crafted file. */
using EntryBytes = std::function<void(service::persist::Writer &)>;

/**
 * A valid synth file (checksum, magic, version, scale) whose count
 * claims `count` entries, followed by what `entries` writes.
 */
void
writeSynthFile(const std::string &path, std::uint64_t count,
               const EntryBytes &entries = {})
{
    service::persist::Writer w;
    w.u32(kSynthMagic);
    w.u32(kFormatVersion);
    w.f64(kFingerprintScale);
    w.u64(count);
    if (entries)
        entries(w);
    ASSERT_TRUE(w.commit(path));
}

/** The pulse twin of writeSynthFile, for Coupling::xy(1.0) at 1e-6. */
void
writePulseFile(const std::string &path, std::uint64_t count,
               const EntryBytes &entries = {})
{
    const uarch::Coupling cpl = uarch::Coupling::xy(1.0);
    service::persist::Writer w;
    w.u32(kPulseMagic);
    w.u32(kFormatVersion);
    w.f64(cpl.a);
    w.f64(cpl.b);
    w.f64(cpl.c);
    w.f64(1e-6);
    w.u64(count);
    if (entries)
        entries(w);
    ASSERT_TRUE(w.commit(path));
}

} // namespace

TEST(SynthCachePersist, InflatedCountIsRejectedWithoutSideEffects)
{
    // An empty file whose count claims 2^22 entries, which load()
    // once reserved room for before reading any.
    const std::string dir = scratchDir("synth_inflated");
    const std::string path = dir + "/synth.cache";
    writeSynthFile(path, kMaxEntries);
    ASSERT_EQ(test::readFile(path).size(), 32u);

    service::SynthCache cache;
    synth::SynthesisOptions opts;
    Rng rng(53);
    const Matrix target = randomUnitary(8, rng);
    cache.store(target, opts, synth::SynthesisResult{}, 0.1);
    bool loaded = true;
    EXPECT_NO_THROW(loaded = cache.load(path));
    EXPECT_FALSE(loaded);
    EXPECT_EQ(cache.size(), 1u);
    synth::SynthesisResult out;
    EXPECT_TRUE(cache.lookup(target, opts, out));
}

TEST(SynthCachePersist, CountMustMatchTheEntries)
{
    // One smallest entry (no key words, a failure, no gates) loads;
    // the same bytes under a count of two do not.
    const EntryBytes entry = [](service::persist::Writer &w) {
        w.u64(0);
        w.u32(0);
        w.f64(1.0);
        w.u32(0);
        w.u64(0);
        w.f64(0.25);
        w.i64(1);
    };

    const std::string dir = scratchDir("synth_smallest");
    const std::string path = dir + "/synth.cache";
    writeSynthFile(path, 1, entry);
    service::SynthCache exact;
    EXPECT_TRUE(exact.load(path));
    EXPECT_EQ(exact.size(), 1u);

    writeSynthFile(path, 2, entry);
    service::SynthCache over;
    EXPECT_FALSE(over.load(path));
    EXPECT_EQ(over.size(), 0u);
}

// ---- Cached gates the hit verification would misread -------------------

namespace
{

/**
 * Save a valid-checksum synth file whose one success entry, keyed on
 * the Toffoli permutation, holds `gate` alone; return its path.
 */
std::string
saveEntryWithGate(const std::string &name, const circuit::Gate &gate)
{
    const std::string path = scratchDir(name) + "/synth.cache";
    synth::SynthesisResult result;
    result.success = true;
    result.blockCount = 1;
    result.gates = {gate};
    service::SynthCache cache;
    cache.store(toffoliPermutation(), synth::SynthesisOptions{}, result,
                0.5);
    EXPECT_TRUE(cache.save(path));
    return path;
}

/**
 * load() refuses the file and the lookup of its key misses. Before
 * load checked each gate, such a file loaded and the first lookup
 * read out of range in hit verification (a segfault).
 */
void
expectRejectedOnLoad(const std::string &path)
{
    service::SynthCache cache;
    bool loaded = true;
    EXPECT_NO_THROW(loaded = cache.load(path));
    EXPECT_FALSE(loaded);
    EXPECT_EQ(cache.size(), 0u);
    synth::SynthesisResult out;
    EXPECT_FALSE(
        cache.lookup(toffoliPermutation(), synth::SynthesisOptions{}, out));
}

} // namespace

TEST(SynthCachePersist, GateOnAQubitPastTheBlockIsRejected)
{
    // Cached gates carry the block's local ids 0..2.
    expectRejectedOnLoad(saveEntryWithGate(
        "synth_qubit7", circuit::Gate::u3(7, 0.5, 0.25, 0.125)));
    // The same entry on qubit 2 loads.
    service::SynthCache control;
    EXPECT_TRUE(control.load(saveEntryWithGate(
        "synth_qubit2", circuit::Gate::u3(2, 0.5, 0.25, 0.125))));
    EXPECT_EQ(control.size(), 1u);
}

TEST(SynthCachePersist, U4WithoutItsMatrixIsRejected)
{
    circuit::Gate bare;
    bare.op = circuit::Op::U4;
    bare.qubits = {0, 1};
    expectRejectedOnLoad(saveEntryWithGate("synth_bare_u4", bare));
}

TEST(PulseCachePersist, InflatedCountIsRejectedWithoutSideEffects)
{
    // At about 4.5 KB per parsed entry, reserving room for this
    // count once threw std::bad_alloc out of load().
    const std::string dir = scratchDir("pulse_inflated");
    const std::string path = dir + "/pulse.cache";
    writePulseFile(path, kMaxEntries);
    ASSERT_EQ(test::readFile(path).size(), 56u);

    const weyl::WeylCoord cnot = weyl::WeylCoord::cnot();
    uarch::PulseSolution sol;
    sol.converged = true;
    sol.target = sol.effective = cnot;
    sol.coordError = 0.0;
    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    cache.store(cnot, sol, 0.1);
    bool loaded = true;
    EXPECT_NO_THROW(loaded = cache.load(path));
    EXPECT_FALSE(loaded);
    EXPECT_EQ(cache.size(), 1u);
    uarch::PulseSolution out;
    EXPECT_TRUE(cache.lookup(cnot, out));
}

TEST(PulseCachePersist, CountMustMatchTheEntries)
{
    // One smallest entry (a converged solution with 0x0 corrections)
    // loads; the same bytes under a count of two do not.
    const EntryBytes entry = [](service::persist::Writer &w) {
        for (int i = 0; i < 3; ++i)
            w.f64(0.125 * (i + 1));  // coordinate
        w.u32(1);                    // converged
        w.u32(0);                    // scheme ND
        for (int i = 0; i < 4; ++i)
            w.f64(0.5);  // tau, omega1, omega2, delta
        for (int i = 0; i < 6; ++i)
            w.f64(0.125 * (i % 3 + 1));  // target, effective
        w.f64(0.0);                      // coordError
        w.u32(0);                        // no corrections
        for (int i = 0; i < 4; ++i)
            w.matrix(Matrix());
        w.f64(0.25);
        w.i64(1);
    };

    const std::string dir = scratchDir("pulse_smallest");
    const std::string path = dir + "/pulse.cache";
    writePulseFile(path, 1, entry);
    service::PulseCache exact(uarch::Coupling::xy(1.0), 1e-6);
    EXPECT_TRUE(exact.load(path));
    EXPECT_EQ(exact.size(), 1u);

    writePulseFile(path, 2, entry);
    service::PulseCache over(uarch::Coupling::xy(1.0), 1e-6);
    EXPECT_FALSE(over.load(path));
    EXPECT_EQ(over.size(), 0u);
}

// ---- Service-level warm start ------------------------------------------

namespace
{

/** The compiled artifacts, flattened to a comparable byte string. */
std::string
flatten(const service::JobResult &r)
{
    std::ostringstream os;
    os << circuit::toQasm(r.compiled.circuit) << "|perm:";
    for (int p : r.compiled.finalPermutation)
        os << p << ",";
    os.precision(17);
    os << "|dur:" << r.metrics.duration;
    return os.str();
}

service::JobResult
compileAdder5Once(const std::string &cache_dir, bool expect_warm,
                  std::string *flat_out)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.cacheDir = cache_dir;
    service::CompileService svc(sopts);
    EXPECT_EQ(svc.synthCacheWarmStarted(), expect_warm);
    EXPECT_EQ(svc.pulseCacheWarmStarted(), expect_warm);

    // adder5 is the example whose Full pipeline actually reaches
    // block resynthesis (hier-synth finds 3Q targets), so both
    // caches end up populated.
    service::CompileRequest req;
    req.name = "adder5";
    req.input = circuit::fromQasm(
        test::readFile(REQISC_SOURCE_DIR "/examples/qasm/adder5.qasm"));
    service::JobResult r = svc.wait(svc.submit(std::move(req)));
    EXPECT_TRUE(r.ok) << r.errorInfo.message;
    if (flat_out)
        *flat_out = flatten(r);
    if (expect_warm) {
        // Every block-resynthesis target and every pulse class was
        // persisted by the cold service: the warm run never solves.
        EXPECT_GT(svc.synthCacheStats().hits, 0);
        EXPECT_EQ(svc.synthCacheStats().misses, 0);
        EXPECT_GT(svc.pulseCacheStats().hits, 0);
        EXPECT_EQ(svc.pulseCacheStats().misses, 0);
    }
    return r;  // svc destructor saves both caches to cache_dir
}

} // namespace

TEST(ServiceCachePersist, WarmStartCompilesBitIdenticallyOutOfCache)
{
    const std::string dir = scratchDir("service_warm");

    std::string cold_flat, warm_flat;
    (void)compileAdder5Once(dir, /*expect_warm=*/false, &cold_flat);

    // The cold service's destructor persisted both caches.
    EXPECT_TRUE(fs::exists(dir + "/synth.cache"));
    EXPECT_TRUE(fs::exists(dir + "/pulse.cache"));
    for (const std::string &name : listDir(dir))
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;

    (void)compileAdder5Once(dir, /*expect_warm=*/true, &warm_flat);
    EXPECT_EQ(warm_flat, cold_flat);
}

TEST(ServiceCachePersist, CorruptCacheFileColdStartsTheService)
{
    const std::string dir = scratchDir("service_corrupt");

    std::string cold_flat, again_flat;
    (void)compileAdder5Once(dir, /*expect_warm=*/false, &cold_flat);

    // Wreck the synth cache file; the pulse file stays intact. The
    // service must come up cold on synth, warm on pulse, and still
    // compile the same artifacts.
    writeFile(dir + "/synth.cache", "not a cache file");
    service::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.cacheDir = dir;
    service::CompileService svc(sopts);
    EXPECT_FALSE(svc.synthCacheWarmStarted());
    EXPECT_TRUE(svc.pulseCacheWarmStarted());

    service::CompileRequest req;
    req.name = "adder5";
    req.input = circuit::fromQasm(
        test::readFile(REQISC_SOURCE_DIR "/examples/qasm/adder5.qasm"));
    service::JobResult r = svc.wait(svc.submit(std::move(req)));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    again_flat = flatten(r);
    EXPECT_EQ(again_flat, cold_flat);

    // Saving now repairs the wrecked file in place (atomically).
    EXPECT_TRUE(svc.saveCaches());
    service::SynthCache check;
    EXPECT_TRUE(check.load(dir + "/synth.cache"));
    EXPECT_GT(check.size(), 0u);
}

TEST(ServiceCachePersist, InflatedCountsColdStartTheService)
{
    // Both files check out up to their count, which claims 2^22
    // entries in no bytes: the service comes up cold on both caches
    // and compiles what a service over an empty directory does.
    std::string fresh_flat, flat;
    (void)compileAdder5Once(scratchDir("service_inflated_ref"),
                            /*expect_warm=*/false, &fresh_flat);

    const std::string dir = scratchDir("service_inflated");
    writeSynthFile(dir + "/synth.cache", kMaxEntries);
    writePulseFile(dir + "/pulse.cache", kMaxEntries);
    (void)compileAdder5Once(dir, /*expect_warm=*/false, &flat);
    EXPECT_EQ(flat, fresh_flat);
}
