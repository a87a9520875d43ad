/**
 * @file
 * The versioned wire schema (apiVersion 1) shared by every JSON
 * surface of the compiler: `reqisc-compile --json`, the
 * reqisc-compiled daemon's request/response bodies, and the
 * machine-readable bench summaries. One set of builders replaces the
 * three hand-maintained emitters those surfaces used to carry, so a
 * field added to Metrics shows up everywhere (or nowhere) at once.
 *
 * Versioning policy (docs/SERVICE.md): within an apiVersion, fields
 * and error codes never change meaning or disappear; new optional
 * fields may be added. Readers must ignore unknown *response* fields;
 * the request parser is strict (unknown request fields are rejected
 * with `bad-request`, catching client typos at submission time).
 *
 * All trees are backend::JsonValue, serialized with dumpJson —
 * numbers round-trip exactly through the repo's own parser
 * (tests/test_api.cc pins this).
 */

#ifndef REQISC_SERVICE_API_HH
#define REQISC_SERVICE_API_HH

#include <string>

#include "backend/json.hh"
#include "compiler/metrics.hh"
#include "service/error.hh"
#include "service/service.hh"

namespace reqisc::service::api
{

/** The wire-schema version every document carries. */
inline constexpr int kApiVersion = 1;

/** {code, httpStatus, message, detail} — the one error shape. */
backend::JsonValue errorToJson(const ApiError &e);

/**
 * Read an error object back (clients, bench_daemon validation).
 * Missing fields default; never throws on shape problems — a
 * malformed error report must not mask the error it reports.
 */
ApiError errorFromJson(const backend::JsonValue &v);

/** One PassTrace: {name, seconds, gates/2Q before+after, makespan}. */
backend::JsonValue passTraceToJson(const compiler::PassTrace &t);

/** {hits, misses, evictions, solveSeconds}. */
backend::JsonValue
cacheCountersToJson(const compiler::CacheCounters &c);

/**
 * Full circuit metrics: counts, duration, cache counters, per-pass
 * trace, `backend` / `schedule` sub-objects when those stages ran
 * (`schedule.strategy` names the strategy the schedule pass ran),
 * and unsolvedClasses.
 */
backend::JsonValue metricsToJson(const compiler::Metrics &m);

/**
 * A CompileRequest as a v1 submission body. The circuit travels as
 * OpenQASM text (`qasm` verbatim when the request carries source,
 * else circuit::toQasm of the input circuit — 17-significant-digit
 * parameters, so the round trip is bit-exact).
 */
backend::JsonValue compileRequestToJson(const CompileRequest &req);

/**
 * Parse and validate a v1 submission body. Strict: throws
 * ApiException with code `bad-request` on a non-object body, an
 * unsupported apiVersion, a missing/empty `qasm`, a wrongly typed
 * field, or an unknown field; `bad-pipeline-spec` on a `pipeline`
 * value the spec grammar rejects (validated here so the client gets
 * a 400 at submission instead of a failed job later).
 *
 * Accepted fields: apiVersion?, name?, qasm, pipeline?, seed?,
 * variational?, calibrate?, schedule? (false | true | "serial" |
 * "asap" | "alap").
 */
CompileRequest compileRequestFromJson(const backend::JsonValue &v);

/** What jobResultToJson includes beyond metrics. */
struct ResultEmitOptions
{
    /**
     * Emit the compiled artifacts: `circuit` (OpenQASM) +
     * `finalPermutation`, and `routed` + `finalLayout` when the job
     * was routed onto a chip. Off by default (artifacts dominate the
     * document size).
     */
    bool artifacts = false;
    /** Emit `schedule.isa` (RQISA assembly) when a program exists. */
    bool isaText = false;
};

/**
 * A finished JobResult as a v1 result document: {apiVersion, id,
 * name, ok, seconds, ...metrics fields...} on success, {apiVersion,
 * id, name, ok: false, seconds, error: {...}} on failure. The
 * metric keys match what `reqisc-compile --json` always printed
 * (count2Q, depth2Q, duration, distinctSU4, synthCache, pulseCache,
 * passes, backend, schedule, unsolvedClasses), because this *is*
 * that emitter now.
 */
backend::JsonValue
jobResultToJson(const JobResult &r,
                const ResultEmitOptions &opts = {});

} // namespace reqisc::service::api

#endif // REQISC_SERVICE_API_HH
