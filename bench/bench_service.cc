/**
 * @file
 * Service benchmark: batch-compilation throughput (circuits/sec) and
 * cache hit rate as a function of `--jobs`, on a cache-warm
 * repeated-structure workload — the economic argument of the
 * reconfigurable ISA, measured: synthesis and pulse-solve cost is
 * amortized across a workload by the service's SU(4) memoization
 * caches, and the remaining work scales out across worker threads.
 *
 * Two sweeps are reported:
 *  1. cold vs warm at one thread — what memoization alone buys;
 *  2. throughput vs jobs on the warm workload — what the thread pool
 *     buys on top (the >= 2x at --jobs 4 claim requires >= 4 physical
 *     cores; on fewer cores the speedup column degrades gracefully
 *     toward 1x).
 *
 * Flags: --full (larger workload), --csv, --seed (see common.hh).
 * --json emits the perf-guard summary instead: cold/warm seconds,
 * memoization speedup and the per-pass aggregate timings of the
 * warm run (compiler::PassTrace rolled up over the batch), so the
 * committed baseline records where compile time goes.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "backend/json.hh"
#include "common.hh"
#include "compiler/metrics.hh"
#include "obs/obs.hh"
#include "service/service.hh"
#include "suite/suite.hh"

using namespace reqisc;
using namespace reqisc::benchtool;

namespace
{

/** The repeated-structure workload: the small suite cycled. */
std::vector<service::CompileRequest>
workload(int copies)
{
    const auto bms = suite::smallSuite();
    std::vector<service::CompileRequest> batch;
    for (int rep = 0; rep < copies; ++rep) {
        for (const auto &bm : bms) {
            service::CompileRequest req;
            req.name = bm.name;
            req.input = bm.circuit;
            batch.push_back(std::move(req));
        }
    }
    return batch;
}

double
runBatch(service::CompileService &svc,
         std::vector<service::CompileRequest> batch,
         std::vector<service::JobResult> *results_out = nullptr)
{
    const auto t0 = std::chrono::steady_clock::now();
    svc.submitBatch(std::move(batch));
    auto results = svc.waitAll();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    for (const auto &r : results) {
        if (!r.ok)
            std::fprintf(stderr, "bench_service: %s failed: %s\n",
                         r.name.c_str(), r.errorInfo.message.c_str());
    }
    if (results_out)
        *results_out = std::move(results);
    return secs;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const int copies = opt.full ? 8 : 3;
    const std::size_t batch_size = workload(copies).size();

    if (opt.json) {
        // Perf-guard summary: memoization speedup at one thread plus
        // the per-pass aggregate timings of the warm run — where
        // compile time goes, stage by stage. Shares (fractions of
        // the total in-pass time) are what baselines.json records:
        // they are ratio-stable across runner speeds, unlike raw
        // seconds.
        service::ServiceOptions off;
        off.threads = 1;
        off.enableCaches = false;
        service::CompileService cold(off);
        const double cold_secs = runBatch(cold, workload(copies));

        service::ServiceOptions on;
        on.threads = 1;
        service::CompileService warm(on);
        runBatch(warm, workload(1));  // warm the caches
        std::vector<service::JobResult> results;
        const double warm_secs =
            runBatch(warm, workload(copies), &results);
        std::vector<const compiler::Metrics *> jobs;
        for (const auto &r : results)
            if (r.ok)
                jobs.push_back(&r.metrics);
        const std::vector<compiler::PassAggregate> agg =
            compiler::aggregatePassTraces(jobs);
        double total = 0.0;
        for (const auto &a : agg)
            total += a.seconds;

        // ---- Cold-path metrics ------------------------------------
        // Where the time actually goes when nothing is memoized yet:
        // (a) intra-job parallel block resynthesis — hier-synth pass
        // seconds at blockWorkers 1 vs 4 on a cache-less single pass
        // over the suite (on a 1-core runner the ratio degrades
        // gracefully toward 1x, hence the loose baseline);
        // (b) persistent caches — the same pass compiled by a fresh
        // service against an empty --cache-dir and again by a second
        // service warm-starting from what the first one saved.
        const auto hierSeconds =
            [](const std::vector<service::JobResult> &rs) {
                double s = 0.0;
                for (const auto &r : rs)
                    if (r.ok)
                        for (const auto &t : r.metrics.passes)
                            if (t.pass == "hier-synth")
                                s += t.seconds;
                return s;
            };
        double hier_serial = 0.0, hier_parallel = 0.0;
        for (int bw : {1, 4}) {
            service::ServiceOptions po;
            po.threads = 1;
            po.enableCaches = false;
            po.blockWorkers = bw;
            service::CompileService svc(po);
            std::vector<service::JobResult> rs;
            runBatch(svc, workload(1), &rs);
            (bw == 1 ? hier_serial : hier_parallel) = hierSeconds(rs);
        }

        namespace fs = std::filesystem;
        std::error_code ec;
        const fs::path cache_dir =
            fs::temp_directory_path() / "reqisc_bench_cache";
        fs::remove_all(cache_dir, ec);
        double persist_cold = 0.0, persist_warm = 0.0;
        double persist_cold_hier = 0.0, persist_warm_hier = 0.0;
        for (int run = 0; run < 2; ++run) {
            service::ServiceOptions po;
            po.threads = 1;
            po.cacheDir = cache_dir.string();
            service::CompileService svc(po);
            std::vector<service::JobResult> rs;
            const double secs = runBatch(svc, workload(1), &rs);
            (run == 0 ? persist_cold : persist_warm) = secs;
            (run == 0 ? persist_cold_hier : persist_warm_hier) =
                hierSeconds(rs);
            // The destructor saves both caches into cache_dir, which
            // is what the second iteration warm-starts from.
        }
        fs::remove_all(cache_dir, ec);

        // ---- Observability overhead -------------------------------
        // The near-zero-cost-when-disabled claim, measured: the warm
        // suite on a 1-thread service with tracing+metrics fully on
        // vs fully off, one suite copy per timed run, 7 x copies runs
        // per config. Which config runs first alternates per
        // repetition, so neither side always inherits the other's
        // warm state, and each side reports its total time. A shared
        // host's speed shifts every few hundred ms: a min of each
        // side compares two lucky phases (min of 7 whole-workload
        // runs spread 0.87-1.11 over ten invocations), while many
        // short interleaved runs put both sides in every phase. The
        // guarded key is the inverted ratio obsEfficiency = off/on
        // (check_baselines floors are higher-is-better, and 1/1.05 ~
        // 0.952 encodes the required < 1.05x overhead).
        double obs_on = 0.0, obs_off = 0.0;
        {
            service::ServiceOptions oo;
            oo.threads = 1;
            service::CompileService svc(oo);
            runBatch(svc, workload(1));  // warm the caches
            for (int rep = 0; rep < 7 * copies; ++rep) {
                for (const bool on : {rep % 2 == 1, rep % 2 == 0}) {
                    obs::setEnabled(on);
                    (on ? obs_on : obs_off) +=
                        runBatch(svc, workload(1));
                    obs::setEnabled(false);
                    obs::Tracer::global().clear();
                }
            }
        }

        // Emitted through the shared JsonValue builders (the v1
        // wire-schema emitter, service/api.hh) like every other
        // --json surface; key names are pinned by the baselines
        // guard and must not drift.
        using backend::JsonValue;
        JsonValue doc = JsonValue::makeObject();
        doc.set("circuits", JsonValue::makeNumber(
                                static_cast<double>(batch_size)));
        doc.set("coldSeconds", JsonValue::makeNumber(cold_secs));
        doc.set("warmSeconds", JsonValue::makeNumber(warm_secs));
        doc.set("memoSpeedup",
                JsonValue::makeNumber(
                    warm_secs > 0.0 ? cold_secs / warm_secs : 0.0));
        doc.set("parallelSynthSpeedup",
                JsonValue::makeNumber(
                    hier_parallel > 0.0
                        ? hier_serial / hier_parallel
                        : 0.0));
        doc.set("persistentWarmSpeedup",
                JsonValue::makeNumber(
                    persist_warm > 0.0
                        ? persist_cold / persist_warm
                        : 0.0));
        doc.set("persistentHierSynthSpeedup",
                JsonValue::makeNumber(
                    persist_warm_hier > 0.0
                        ? persist_cold_hier / persist_warm_hier
                        : 0.0));
        doc.set("obsOverhead",
                JsonValue::makeNumber(
                    obs_off > 0.0 ? obs_on / obs_off : 0.0));
        doc.set("obsEfficiency",
                JsonValue::makeNumber(
                    obs_on > 0.0 ? obs_off / obs_on : 0.0));
        doc.set("passSecondsTotal", JsonValue::makeNumber(total));
        JsonValue passes = JsonValue::makeObject();
        for (const compiler::PassAggregate &a : agg) {
            JsonValue p = JsonValue::makeObject();
            p.set("seconds", JsonValue::makeNumber(a.seconds));
            p.set("share",
                  JsonValue::makeNumber(
                      total > 0.0 ? a.seconds / total : 0.0));
            passes.set(a.pass, std::move(p));
        }
        doc.set("passes", std::move(passes));
        std::fputs(backend::dumpJson(doc, true).c_str(), stdout);
        return 0;
    }

    // ---- Sweep 1: what the caches alone buy (one thread) -------------
    Table cache_tbl(
        "Service: cache-off vs cache-warm batch compile (1 thread)",
        {"config", "circuits", "sec", "circuits/s", "synth hit%",
         "pulse hit%"});
    double cold_ref = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const bool cached = pass == 1;
        service::ServiceOptions sopts;
        sopts.threads = 1;
        sopts.enableCaches = cached;
        service::CompileService svc(sopts);
        if (cached)
            runBatch(svc, workload(1));  // warm the caches
        const double secs = runBatch(svc, workload(copies));
        if (!cached)
            cold_ref = secs;
        const auto ss = svc.synthCacheStats();
        const auto ps = svc.pulseCacheStats();
        cache_tbl.addRow({cached ? "cache-warm" : "cache-off",
                          std::to_string(batch_size), fmt(secs, 3),
                          fmt(batch_size / secs, 2),
                          pct(ss.hitRate()), pct(ps.hitRate())});
    }
    cache_tbl.print(opt.csv);

    // ---- Sweep 2: throughput vs jobs on the warm workload ------------
    Table jobs_tbl("Service: batch throughput vs --jobs (cache-warm "
                   "repeated-structure workload)",
                   {"jobs", "circuits", "sec", "circuits/s",
                    "speedup", "synth hit%", "pulse hit%"});
    double base = 0.0;
    for (int jobs : {1, 2, 4, 8}) {
        service::ServiceOptions sopts;
        sopts.threads = jobs;
        service::CompileService svc(sopts);
        runBatch(svc, workload(1));  // warm the caches
        const double secs = runBatch(svc, workload(copies));
        if (jobs == 1)
            base = secs;
        const auto ss = svc.synthCacheStats();
        const auto ps = svc.pulseCacheStats();
        jobs_tbl.addRow({std::to_string(jobs),
                         std::to_string(batch_size), fmt(secs, 3),
                         fmt(batch_size / secs, 2),
                         fmt(base / secs, 2) + "x",
                         pct(ss.hitRate()), pct(ps.hitRate())});
    }
    jobs_tbl.print(opt.csv);

    if (cold_ref > 0.0 && base > 0.0 && !opt.csv)
        std::printf("\nmemoization speedup (1 thread, warm vs off): "
                    "%.2fx\n",
                    cold_ref / base);
    return 0;
}
