/**
 * @file
 * The one file envelope of the persistent caches, and its binary
 * (de)serialization primitives.
 *
 * File layout (little-endian throughout):
 *
 *   u32 magic        'RQSC' (synth) / 'RQPC' (pulse)
 *   u32 formatVersion
 *   f64 header[...]  what a key's meaning depends on (Format::header)
 *   u64 count
 *   ... count entries (their fields are owned by the cache classes) ...
 *   u64 checksum     FNV-1a over every preceding byte
 *
 * save() and load() own all but the entries, span and log lines
 * included. The contract the caches build on:
 *
 *  - Writer buffers everything in memory and commits with
 *    write-to-temporary + std::rename, so a crash mid-save never
 *    leaves a partial file at the target path (atomic on POSIX).
 *  - load() verifies length and trailing checksum before any field is
 *    parsed, and reads entries one at a time, so no count sizes an
 *    allocation; a truncated, corrupted or inflated file fails
 *    cleanly (load returns false, the cache cold-starts) — it never
 *    throws and never yields garbage fields.
 *  - Doubles round-trip bit-exactly (raw IEEE-754 bit patterns), so
 *    a reloaded entry is indistinguishable from the freshly computed
 *    one — the bit-identical determinism contract of the service
 *    survives a restart.
 *  - Bumping a format version constant in the caller invalidates old
 *    files wholesale; there is no in-place migration.
 */

#ifndef REQISC_SERVICE_PERSIST_HH
#define REQISC_SERVICE_PERSIST_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/gate.hh"
#include "qmath/matrix.hh"

namespace reqisc::service::persist
{

/** FNV-1a over a raw byte range (the file checksum, the key hash). */
std::uint64_t fnv1aBytes(const void *data, std::size_t n);

/** Append-only little-endian buffer with an atomic file commit. */
class Writer
{
  public:
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    /** Raw IEEE-754 bit pattern; round-trips exactly. */
    void f64(double v);
    void matrix(const qmath::Matrix &m);
    void gate(const circuit::Gate &g);
    /** Everything `tail` holds, after what this one holds. */
    void append(const Writer &tail);

    /**
     * Append the checksum trailer and atomically replace `path`
     * (write `path` + ".tmp", fsync-free rename). @return false on
     * any I/O failure; the target file is left untouched then.
     */
    bool commit(const std::string &path) const;

  private:
    std::string buf_;
};

/** Bounds-checked reader over a fully slurped file. */
class Reader
{
  public:
    /** Read a whole file; false if missing/unreadable. */
    static bool slurp(const std::string &path, std::string &out);

    explicit Reader(std::string data);

    /**
     * Verify the trailing checksum against everything before it and
     * shrink the readable range to exclude the trailer. Must be
     * called (and succeed) before parsing fields.
     */
    bool verifyChecksum();

    // Each accessor returns false on exhausted input (truncation).
    bool u32(std::uint32_t &v);
    bool u64(std::uint64_t &v);
    bool i64(std::int64_t &v);
    bool f64(double &v);
    bool matrix(qmath::Matrix &m);
    bool gate(circuit::Gate &g);

    std::size_t remaining() const { return end_ - pos_; }

  private:
    /** The next `n` bytes as a little-endian value. */
    bool le(std::uint64_t &v, std::size_t n);

    std::string data_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
};

/** One cache's file identity: what save() writes, load() demands. */
struct Format
{
    const char *kind;  //!< "synth" / "pulse": span and log names
    std::uint32_t magic;
    std::uint32_t version;
    std::vector<double> header;  //!< compared bit for bit on load
};

/**
 * Write a cache file atomically; `entries` writes every entry and
 * returns how many. @return false on I/O failure (target untouched).
 */
bool save(const std::string &path, const Format &fmt,
          const std::function<std::size_t(Writer &)> &entries);

/**
 * Read a cache file all-or-nothing: `entry` reads one entry per call
 * once the checksum, magic, version, header and count check out, and
 * `merge` runs only if every call succeeds and no byte is left over.
 * Otherwise returns false without calling `merge` (a cold start).
 */
bool load(const std::string &path, const Format &fmt,
          const std::function<bool(Reader &)> &entry,
          const std::function<void()> &merge);

} // namespace reqisc::service::persist

#endif // REQISC_SERVICE_PERSIST_HH
