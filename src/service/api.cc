#include "service/api.hh"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "circuit/qasm.hh"
#include "compiler/pass_manager.hh"
#include "isa/assembly.hh"
#include "isa/schedule.hh"

namespace reqisc::service::api
{

using backend::JsonValue;

namespace
{

[[noreturn]] void
badRequest(const std::string &message, const std::string &detail = "")
{
    throw ApiException(
        makeError(errc::kBadRequest, message, detail));
}

/** Typed field access for the strict request parser. */
const JsonValue *
field(const JsonValue &obj, const char *key, JsonValue::Kind kind)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return nullptr;
    // Booleans arrive as Kind::Bool only; everything else must match
    // exactly (numbers are never coerced from strings).
    if (v->kind != kind)
        badRequest(std::string("field '") + key + "' must be " +
                   JsonValue::kindName(kind) + ", got " +
                   JsonValue::kindName(v->kind));
    return v;
}

} // namespace

JsonValue
errorToJson(const ApiError &e)
{
    JsonValue o = JsonValue::makeObject();
    o.set("code", JsonValue::makeString(e.code));
    o.set("httpStatus",
          JsonValue::makeNumber(static_cast<double>(e.httpStatus)));
    o.set("message", JsonValue::makeString(e.message));
    if (!e.detail.empty())
        o.set("detail", JsonValue::makeString(e.detail));
    return o;
}

ApiError
errorFromJson(const JsonValue &v)
{
    ApiError e;
    if (!v.isObject())
        return e;
    if (const JsonValue *c = v.find("code"); c && c->isString())
        e.code = c->str;
    if (const JsonValue *s = v.find("httpStatus");
        s && s->isNumber())
        e.httpStatus = static_cast<int>(s->number);
    if (const JsonValue *m = v.find("message"); m && m->isString())
        e.message = m->str;
    if (const JsonValue *d = v.find("detail"); d && d->isString())
        e.detail = d->str;
    return e;
}

JsonValue
passTraceToJson(const compiler::PassTrace &t)
{
    JsonValue o = JsonValue::makeObject();
    o.set("name", JsonValue::makeString(t.pass));
    o.set("seconds", JsonValue::makeNumber(t.seconds));
    o.set("gatesBefore",
          JsonValue::makeNumber(static_cast<double>(t.gatesBefore)));
    o.set("gatesAfter",
          JsonValue::makeNumber(static_cast<double>(t.gatesAfter)));
    o.set("count2QBefore", JsonValue::makeNumber(
                               static_cast<double>(t.count2QBefore)));
    o.set("count2QAfter", JsonValue::makeNumber(
                              static_cast<double>(t.count2QAfter)));
    o.set("makespan", JsonValue::makeNumber(t.makespanAfter));
    if (!t.note.empty())
        o.set("note", JsonValue::makeString(t.note));
    return o;
}

JsonValue
cacheCountersToJson(const compiler::CacheCounters &c)
{
    JsonValue o = JsonValue::makeObject();
    o.set("hits",
          JsonValue::makeNumber(static_cast<double>(c.hits)));
    o.set("misses",
          JsonValue::makeNumber(static_cast<double>(c.misses)));
    o.set("evictions",
          JsonValue::makeNumber(static_cast<double>(c.evictions)));
    o.set("solveSeconds", JsonValue::makeNumber(c.solveSeconds));
    return o;
}

JsonValue
metricsToJson(const compiler::Metrics &m)
{
    JsonValue o = JsonValue::makeObject();
    o.set("count2Q",
          JsonValue::makeNumber(static_cast<double>(m.count2Q)));
    o.set("depth2Q",
          JsonValue::makeNumber(static_cast<double>(m.depth2Q)));
    o.set("duration", JsonValue::makeNumber(m.duration));
    o.set("distinctSU4",
          JsonValue::makeNumber(static_cast<double>(m.distinctSU4)));
    o.set("synthCacheHitRate",
          JsonValue::makeNumber(m.synthCache.hitRate()));
    o.set("pulseCacheHitRate",
          JsonValue::makeNumber(m.pulseCache.hitRate()));
    o.set("synthCache", cacheCountersToJson(m.synthCache));
    o.set("pulseCache", cacheCountersToJson(m.pulseCache));
    JsonValue passes = JsonValue::makeArray();
    for (const compiler::PassTrace &t : m.passes)
        passes.push(passTraceToJson(t));
    o.set("passes", std::move(passes));
    if (m.backend.used) {
        JsonValue b = JsonValue::makeObject();
        b.set("routedSwaps", JsonValue::makeNumber(
                                 static_cast<double>(
                                     m.backend.routedSwaps)));
        b.set("routedSwapsAbsorbed",
              JsonValue::makeNumber(static_cast<double>(
                  m.backend.routedSwapsAbsorbed)));
        b.set("fidelityReconfigured",
              JsonValue::makeNumber(m.backend.fidelityReconfigured));
        b.set("fidelityUniform",
              JsonValue::makeNumber(m.backend.fidelityUniform));
        o.set("backend", std::move(b));
    }
    if (m.schedule.scheduled) {
        JsonValue s = JsonValue::makeObject();
        s.set("makespan", JsonValue::makeNumber(m.schedule.makespan));
        s.set("serialDuration",
              JsonValue::makeNumber(m.schedule.serialDuration));
        s.set("parallelism",
              JsonValue::makeNumber(m.schedule.parallelism));
        s.set("idleTime", JsonValue::makeNumber(m.schedule.idleTime));
        s.set("instructions",
              JsonValue::makeNumber(
                  static_cast<double>(m.schedule.instructions)));
        if (!m.schedule.strategy.empty())
            s.set("strategy",
                  JsonValue::makeString(m.schedule.strategy));
        o.set("schedule", std::move(s));
    }
    o.set("unsolvedClasses",
          JsonValue::makeNumber(static_cast<double>(m.unsolvedClasses)));
    return o;
}

JsonValue
compileRequestToJson(const CompileRequest &req)
{
    JsonValue o = JsonValue::makeObject();
    o.set("apiVersion",
          JsonValue::makeNumber(static_cast<double>(kApiVersion)));
    if (!req.name.empty())
        o.set("name", JsonValue::makeString(req.name));
    o.set("qasm", JsonValue::makeString(
                      req.qasm.empty() ? circuit::toQasm(req.input)
                                       : req.qasm));
    o.set("pipeline", JsonValue::makeString(req.pipelineSpec));
    o.set("seed", JsonValue::makeNumber(
                      static_cast<double>(req.options.seed)));
    if (req.options.variationalMode)
        o.set("variational", JsonValue::makeBool(true));
    o.set("calibrate", JsonValue::makeBool(req.calibrate));
    if (req.schedule)
        o.set("schedule",
              JsonValue::makeString(
                  isa::strategyName(req.scheduleOptions.strategy)));
    else
        o.set("schedule", JsonValue::makeBool(false));
    return o;
}

CompileRequest
compileRequestFromJson(const JsonValue &v)
{
    if (!v.isObject())
        badRequest("request body must be a JSON object");
    static constexpr const char *kKnown[] = {
        "apiVersion", "name",      "qasm",     "pipeline",
        "seed",       "variational", "calibrate", "schedule",
    };
    for (const auto &[key, value] : v.object) {
        (void)value;
        bool known = false;
        for (const char *k : kKnown)
            known |= key == k;
        if (!known)
            badRequest("unknown field '" + key + "'");
    }
    if (const JsonValue *ver =
            field(v, "apiVersion", JsonValue::Kind::Number)) {
        if (ver->number != static_cast<double>(kApiVersion))
            badRequest("unsupported apiVersion (this server speaks " +
                       std::to_string(kApiVersion) + ")");
    }

    CompileRequest req;
    if (const JsonValue *name =
            field(v, "name", JsonValue::Kind::String))
        req.name = name->str;
    const JsonValue *qasm = field(v, "qasm", JsonValue::Kind::String);
    if (!qasm || qasm->str.empty())
        badRequest("missing required field 'qasm'");
    req.qasm = qasm->str;
    if (const JsonValue *pipeline =
            field(v, "pipeline", JsonValue::Kind::String)) {
        compiler::PipelineSpec spec;
        std::string error;
        if (!compiler::parsePipelineSpec(pipeline->str, spec, error))
            throw ApiException(makeError(errc::kBadPipelineSpec,
                                         error, pipeline->str));
        req.pipelineSpec = pipeline->str;
    }
    if (const JsonValue *seed =
            field(v, "seed", JsonValue::Kind::Number)) {
        // Range first: casting a double above UINT_MAX to unsigned
        // is undefined behaviour.
        if (seed->number < 0 ||
            seed->number > std::numeric_limits<unsigned>::max() ||
            seed->number != std::floor(seed->number))
            badRequest("field 'seed' must be an integer in [0, " +
                       std::to_string(
                           std::numeric_limits<unsigned>::max()) +
                       "]");
        req.options.seed = static_cast<unsigned>(seed->number);
    }
    if (const JsonValue *variational =
            field(v, "variational", JsonValue::Kind::Bool))
        req.options.variationalMode = variational->boolean;
    if (const JsonValue *calibrate =
            field(v, "calibrate", JsonValue::Kind::Bool))
        req.calibrate = calibrate->boolean;
    if (const JsonValue *schedule = v.find("schedule")) {
        if (schedule->kind == JsonValue::Kind::Bool) {
            req.schedule = schedule->boolean;
        } else if (schedule->isString()) {
            if (!isa::strategyFromName(
                    schedule->str, req.scheduleOptions.strategy))
                badRequest("field 'schedule' must be false, true, "
                           "\"serial\", \"asap\" or \"alap\"",
                           schedule->str);
            req.schedule = true;
        } else {
            badRequest("field 'schedule' must be a bool or a "
                       "strategy name");
        }
    }
    return req;
}

JsonValue
jobResultToJson(const JobResult &r, const ResultEmitOptions &opts)
{
    JsonValue o = JsonValue::makeObject();
    o.set("apiVersion",
          JsonValue::makeNumber(static_cast<double>(kApiVersion)));
    o.set("id",
          JsonValue::makeNumber(static_cast<double>(r.id)));
    o.set("name", JsonValue::makeString(r.name));
    o.set("ok", JsonValue::makeBool(r.ok));
    if (!r.ok) {
        o.set("error", errorToJson(r.errorInfo));
        o.set("seconds", JsonValue::makeNumber(r.seconds));
        return o;
    }
    // Success: splice the metrics fields in at the top level, the
    // shape `reqisc-compile --json` has always printed.
    JsonValue metrics = metricsToJson(r.metrics);
    for (auto &[key, value] : metrics.object) {
        if (key == "schedule" && opts.isaText) {
            try {
                value.set("isa", JsonValue::makeString(
                                     isa::toAssembly(r.program)));
            } catch (const std::exception &e) {
                value.set("isaError", JsonValue::makeString(e.what()));
            }
        }
        o.set(key, std::move(value));
    }
    o.set("seconds", JsonValue::makeNumber(r.seconds));
    if (opts.artifacts) {
        o.set("circuit", JsonValue::makeString(
                             circuit::toQasm(r.compiled.circuit)));
        JsonValue perm = JsonValue::makeArray();
        for (int p : r.compiled.finalPermutation)
            perm.push(
                JsonValue::makeNumber(static_cast<double>(p)));
        o.set("finalPermutation", std::move(perm));
        if (!r.routed.gates().empty() || !r.finalLayout.empty()) {
            o.set("routed",
                  JsonValue::makeString(circuit::toQasm(r.routed)));
            JsonValue layout = JsonValue::makeArray();
            for (int p : r.finalLayout)
                layout.push(
                    JsonValue::makeNumber(static_cast<double>(p)));
            o.set("finalLayout", std::move(layout));
        }
    }
    return o;
}

} // namespace reqisc::service::api
