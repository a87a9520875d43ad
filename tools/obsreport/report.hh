/**
 * @file
 * Perf-regression attribution between two observability captures.
 *
 * obsreport ingests what an instrumented run leaves behind — the
 * --json summary of reqisc-compile or bench_service, a Prometheus
 * metrics snapshot (--metrics-out), a Chrome trace (--trace-out) —
 * for a BASE run and a CANDIDATE run, and answers "where did the
 * time go": per-pass absolute and share-of-total-delta attribution,
 * a top-regressors ranking, histogram quantile shifts, and flat
 * scalar diffs, as text or as one machine-readable JSON document.
 *
 * Everything here is pure: parse into RunData, compare() into a
 * Report, render. The CLI in obsreport.cc only does file I/O and
 * flag plumbing, which keeps the whole pipeline unit-testable on
 * canned inputs (tests/test_obsreport.cc).
 */

#ifndef REQISC_TOOLS_OBSREPORT_REPORT_HH
#define REQISC_TOOLS_OBSREPORT_REPORT_HH

#include <map>
#include <string>
#include <vector>

#include "backend/json.hh"
#include "obs/metrics.hh"

namespace reqisc::tools
{

/**
 * Everything obsreport knows about one run, merged from any subset
 * of the supported input files. Maps keep pass/metric iteration
 * deterministic regardless of input order.
 */
struct RunData
{
    /** Per-pass wall seconds. From a bench_service --json "passes"
     *  object, or aggregated over circuits[].passes[] of a
     *  reqisc-compile --json document, or summed span durations of
     *  a Chrome trace (by span name). */
    std::map<std::string, double> passSeconds;

    /** Flat numeric scalars under dotted keys ("memoSpeedup",
     *  "circuits.bell.seconds", counter/gauge values from a
     *  Prometheus snapshot). Arrays are not flattened — per-element
     *  keys would be meaningless to diff. */
    std::map<std::string, double> scalars;

    /** Histograms rebuilt from a Prometheus snapshot (cumulative
     *  buckets de-accumulated) for quantile-shift attribution. */
    std::map<std::string, obs::HistogramSnapshot> histograms;
};

/**
 * Ingest a --json document from either producer. The shape is
 * sniffed: a top-level "passes" object means bench_service, a
 * top-level "circuits" array means reqisc-compile (whose per-pass
 * seconds are summed across circuits). Top-level and nested numeric
 * scalars are flattened under dotted keys either way. Throws
 * backend::JsonError (with `context` in the message) on a document
 * that does not parse or matches neither shape.
 */
void ingestBenchJson(RunData &run, const std::string &text,
                     const std::string &context);

/**
 * Ingest a Prometheus text snapshot (the --metrics-out format).
 * Counters and gauges land in scalars; _bucket/_sum/_count series
 * are reassembled into HistogramSnapshots (the le="+Inf" cumulative
 * count is the total; per-bucket counts are recovered by
 * differencing). Unparseable lines are skipped — the format is
 * line-oriented and a partial snapshot is still useful.
 */
void ingestPromText(RunData &run, const std::string &text);

/**
 * Ingest a Chrome trace (the --trace-out format): sums the "dur"
 * field (microseconds) by event name into passSeconds, so a trace
 * can stand in for a missing --json summary. Throws
 * backend::JsonError on malformed JSON.
 */
void ingestTraceJson(RunData &run, const std::string &text,
                     const std::string &context);

/** Attribution of one pass's contribution to the total delta. */
struct PassDelta
{
    std::string pass;
    double baseSeconds = 0.0;
    double candSeconds = 0.0;
    double deltaSeconds = 0.0;  //!< cand - base
    /** cand/base; 0 when base is 0 (new pass). */
    double ratio = 0.0;
    /** deltaSeconds / |total delta|; signed, so improvements that
     *  mask a regression show up as negative shares. 0 when the
     *  total delta is 0. */
    double shareOfTotalDelta = 0.0;
};

/** One histogram quantile compared across runs. */
struct QuantileShift
{
    std::string metric;
    double q = 0.0;
    double base = 0.0;
    double cand = 0.0;
    double delta = 0.0;
};

/** One flat scalar compared across runs. */
struct ScalarDelta
{
    std::string key;
    double base = 0.0;
    double cand = 0.0;
    double delta = 0.0;
};

struct Report
{
    double totalBaseSeconds = 0.0;
    double totalCandSeconds = 0.0;
    double totalDeltaSeconds = 0.0;
    /** Sorted by deltaSeconds descending (worst regressor first). */
    std::vector<PassDelta> passes;
    /** Pass names with deltaSeconds > 0, worst first — the ranking
     *  the CI attribution smoke pins. */
    std::vector<std::string> topRegressors;
    /** q in {0.5, 0.95, 0.99} for every histogram present in both
     *  runs with samples on both sides (an empty histogram has NaN
     *  quantiles — see HistogramSnapshot::quantile — and is skipped
     *  rather than reported as a shift from/to zero). */
    std::vector<QuantileShift> quantiles;
    /** Scalars present in both runs whose value changed. */
    std::vector<ScalarDelta> scalars;
};

/** Diff two runs; see the Report field docs for the semantics. */
Report compare(const RunData &base, const RunData &cand);

/** Machine-readable report (one self-contained JSON document). */
std::string reportJson(const Report &r);

/** Human-readable report (aligned tables, worst regressor first). */
std::string reportText(const Report &r, std::size_t topN = 10);

} // namespace reqisc::tools

#endif // REQISC_TOOLS_OBSREPORT_REPORT_HH
