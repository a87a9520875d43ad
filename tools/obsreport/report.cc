#include "obsreport/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "obs/json_escape.hh"

namespace reqisc::tools
{

namespace
{

/** Compact finite-number formatting for JSON and tables. %.9g keeps
 *  full attribution precision while staying diff-friendly; JSON has
 *  no NaN/Inf literal, so nonfinite values (which the pipeline
 *  filters before rendering) degrade to 0 instead of corrupting the
 *  document. */
std::string fmtNum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void flattenScalars(const backend::JsonValue &v,
                    const std::string &prefix, RunData &run)
{
    if (v.isNumber())
    {
        run.scalars[prefix] = v.number;
        return;
    }
    if (!v.isObject())
        return;  // arrays/strings/bools carry no diffable scalar
    for (const auto &[key, child] : v.object)
        flattenScalars(child,
                       prefix.empty() ? key : prefix + "." + key,
                       run);
}

/** Sum the "passes" array of one reqisc-compile circuit entry. */
void addCircuitPasses(const backend::JsonValue &passes, RunData &run)
{
    for (const backend::JsonValue &p : passes.array)
    {
        if (!p.isObject())
            continue;
        const backend::JsonValue *name = p.find("name");
        const backend::JsonValue *secs = p.find("seconds");
        if (name && name->isString() && secs && secs->isNumber())
            run.passSeconds[name->str] += secs->number;
    }
}

} // namespace

void ingestBenchJson(RunData &run, const std::string &text,
                     const std::string &context)
{
    const backend::JsonValue doc = backend::parseJson(text, context);
    if (!doc.isObject())
        throw backend::JsonError(context +
                                 ": expected a top-level object");

    const backend::JsonValue *passes = doc.find("passes");
    const backend::JsonValue *circuits = doc.find("circuits");
    if (passes && passes->isObject())
    {
        // bench_service shape: "passes": {"name": {"seconds": s,
        // "share": f}, ...}.
        for (const auto &[name, entry] : passes->object)
        {
            const backend::JsonValue *secs =
                entry.isObject() ? entry.find("seconds") : nullptr;
            if (secs && secs->isNumber())
                run.passSeconds[name] += secs->number;
        }
    }
    else if (circuits && circuits->isArray())
    {
        // reqisc-compile shape: per-circuit pass lists, summed.
        for (const backend::JsonValue &c : circuits->array)
        {
            if (!c.isObject())
                continue;
            const backend::JsonValue *cp = c.find("passes");
            if (cp && cp->isArray())
                addCircuitPasses(*cp, run);
            // Per-circuit totals are useful scalars; arrays are
            // otherwise skipped by the flattener below.
            const backend::JsonValue *cname = c.find("name");
            const backend::JsonValue *csecs = c.find("seconds");
            if (cname && cname->isString() && csecs &&
                csecs->isNumber())
                run.scalars["circuits." + cname->str + ".seconds"] =
                    csecs->number;
        }
    }
    else
    {
        throw backend::JsonError(
            context + ": neither a bench_service (\"passes\" "
                      "object) nor a reqisc-compile (\"circuits\" "
                      "array) --json document");
    }

    flattenScalars(doc, "", run);
}

void ingestPromText(RunData &run, const std::string &text)
{
    // Intermediate cumulative-bucket state per histogram family.
    struct HistBuild
    {
        std::vector<std::pair<double, std::uint64_t>> cum;
        std::uint64_t count = 0;
        double sum = 0.0;
        bool sawInf = false;
    };
    std::map<std::string, HistBuild> hists;
    std::set<std::string> histNames;

    std::size_t pos = 0;
    while (pos < text.size())
    {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line[0] == '#')
        {
            // Only "# TYPE <name> histogram" matters: it tells the
            // _bucket/_sum/_count suffixes apart from plain metrics
            // that happen to end the same way.
            static const std::string kType = "# TYPE ";
            if (line.rfind(kType, 0) == 0)
            {
                const std::string rest = line.substr(kType.size());
                const std::size_t sp = rest.find(' ');
                if (sp != std::string::npos &&
                    rest.substr(sp + 1) == "histogram")
                    histNames.insert(rest.substr(0, sp));
            }
            continue;
        }
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp + 1 >= line.size())
            continue;
        const std::string series = line.substr(0, sp);
        char *end = nullptr;
        const double value =
            std::strtod(line.c_str() + sp + 1, &end);
        if (end == line.c_str() + sp + 1)
            continue;  // not a number; skip the line

        // _bucket{le="BOUND"} of a declared histogram.
        const std::size_t brace = series.find("_bucket{le=\"");
        if (brace != std::string::npos &&
            histNames.count(series.substr(0, brace)))
        {
            HistBuild &h = hists[series.substr(0, brace)];
            const std::size_t lo = brace + 12;
            const std::size_t hi = series.find('"', lo);
            if (hi == std::string::npos)
                continue;
            const std::string bound = series.substr(lo, hi - lo);
            if (bound == "+Inf")
                h.sawInf = true;  // total lands via _count below
            else
                h.cum.emplace_back(
                    std::strtod(bound.c_str(), nullptr),
                    static_cast<std::uint64_t>(value));
            continue;
        }
        const auto suffixed = [&](const char *suffix,
                                  std::string &family) {
            const std::size_t n = std::string(suffix).size();
            if (series.size() <= n ||
                series.compare(series.size() - n, n, suffix) != 0)
                return false;
            family = series.substr(0, series.size() - n);
            return histNames.count(family) != 0;
        };
        std::string family;
        if (suffixed("_sum", family))
        {
            hists[family].sum = value;
            continue;
        }
        if (suffixed("_count", family))
        {
            hists[family].count =
                static_cast<std::uint64_t>(value);
            continue;
        }
        run.scalars[series] = value;
    }

    for (auto &[name, h] : hists)
    {
        std::sort(h.cum.begin(), h.cum.end());
        obs::HistogramSnapshot snap;
        snap.name = name;
        snap.count = h.count;
        snap.sum = h.sum;
        std::uint64_t prev = 0;
        for (const auto &[bound, cum] : h.cum)
        {
            snap.bounds.push_back(bound);
            snap.buckets.push_back(cum >= prev ? cum - prev : 0);
            prev = cum;
        }
        // Final +Inf bucket: whatever the finite bounds missed.
        snap.buckets.push_back(h.count >= prev ? h.count - prev
                                               : 0);
        run.histograms[name] = std::move(snap);
    }
}

void ingestTraceJson(RunData &run, const std::string &text,
                     const std::string &context)
{
    const backend::JsonValue doc = backend::parseJson(text, context);
    const backend::JsonValue *events =
        doc.isObject() ? doc.find("traceEvents") : nullptr;
    if (!events || !events->isArray())
        throw backend::JsonError(
            context + ": not a Chrome trace (no \"traceEvents\" "
                      "array)");
    for (const backend::JsonValue &ev : events->array)
    {
        if (!ev.isObject())
            continue;
        const backend::JsonValue *name = ev.find("name");
        const backend::JsonValue *dur = ev.find("dur");
        if (name && name->isString() && dur && dur->isNumber())
            run.passSeconds[name->str] += dur->number * 1e-6;
    }
}

Report compare(const RunData &base, const RunData &cand)
{
    Report r;
    std::set<std::string> passNames;
    for (const auto &[name, secs] : base.passSeconds)
    {
        r.totalBaseSeconds += secs;
        passNames.insert(name);
    }
    for (const auto &[name, secs] : cand.passSeconds)
    {
        r.totalCandSeconds += secs;
        passNames.insert(name);
    }
    r.totalDeltaSeconds = r.totalCandSeconds - r.totalBaseSeconds;

    for (const std::string &name : passNames)
    {
        PassDelta d;
        d.pass = name;
        const auto bi = base.passSeconds.find(name);
        const auto ci = cand.passSeconds.find(name);
        d.baseSeconds = bi != base.passSeconds.end() ? bi->second
                                                     : 0.0;
        d.candSeconds = ci != cand.passSeconds.end() ? ci->second
                                                     : 0.0;
        d.deltaSeconds = d.candSeconds - d.baseSeconds;
        d.ratio = d.baseSeconds > 0.0
                      ? d.candSeconds / d.baseSeconds
                      : 0.0;
        d.shareOfTotalDelta =
            r.totalDeltaSeconds != 0.0
                ? d.deltaSeconds / std::abs(r.totalDeltaSeconds)
                : 0.0;
        r.passes.push_back(std::move(d));
    }
    std::sort(r.passes.begin(), r.passes.end(),
              [](const PassDelta &a, const PassDelta &b) {
                  if (a.deltaSeconds != b.deltaSeconds)
                      return a.deltaSeconds > b.deltaSeconds;
                  return a.pass < b.pass;
              });
    for (const PassDelta &d : r.passes)
        if (d.deltaSeconds > 0.0)
            r.topRegressors.push_back(d.pass);

    static const double kQs[] = {0.5, 0.95, 0.99};
    for (const auto &[name, bh] : base.histograms)
    {
        const auto ci = cand.histograms.find(name);
        if (ci == cand.histograms.end())
            continue;
        for (const double q : kQs)
        {
            const double bq = bh.quantile(q);
            const double cq = ci->second.quantile(q);
            // An empty histogram has NaN quantiles (no samples) —
            // skipping beats reporting a bogus shift from/to zero.
            if (std::isnan(bq) || std::isnan(cq))
                continue;
            r.quantiles.push_back(
                QuantileShift{name, q, bq, cq, cq - bq});
        }
    }

    for (const auto &[key, bv] : base.scalars)
    {
        const auto ci = cand.scalars.find(key);
        if (ci != cand.scalars.end() && ci->second != bv)
            r.scalars.push_back(
                ScalarDelta{key, bv, ci->second,
                            ci->second - bv});
    }
    return r;
}

std::string reportJson(const Report &r)
{
    std::string out;
    out.reserve(1024 + r.passes.size() * 160);
    out += "{\n  \"obsreport\": {\"version\": 1},\n";
    out += "  \"total\": {\"baseSeconds\": " +
           fmtNum(r.totalBaseSeconds) +
           ", \"candSeconds\": " + fmtNum(r.totalCandSeconds) +
           ", \"deltaSeconds\": " + fmtNum(r.totalDeltaSeconds) +
           "},\n";
    out += "  \"passes\": [";
    for (std::size_t i = 0; i < r.passes.size(); ++i)
    {
        const PassDelta &d = r.passes[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"pass\": \"" + obs::jsonEscape(d.pass) +
               "\", \"baseSeconds\": " + fmtNum(d.baseSeconds) +
               ", \"candSeconds\": " + fmtNum(d.candSeconds) +
               ", \"deltaSeconds\": " + fmtNum(d.deltaSeconds) +
               ", \"ratio\": " + fmtNum(d.ratio) +
               ", \"shareOfTotalDelta\": " +
               fmtNum(d.shareOfTotalDelta) + "}";
    }
    out += "\n  ],\n  \"topRegressors\": [";
    for (std::size_t i = 0; i < r.topRegressors.size(); ++i)
    {
        if (i)
            out += ", ";
        out += '"';
        out += obs::jsonEscape(r.topRegressors[i]);
        out += '"';
    }
    out += "],\n  \"quantiles\": [";
    for (std::size_t i = 0; i < r.quantiles.size(); ++i)
    {
        const QuantileShift &qd = r.quantiles[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"metric\": \"" + obs::jsonEscape(qd.metric) +
               "\", \"q\": " + fmtNum(qd.q) +
               ", \"base\": " + fmtNum(qd.base) +
               ", \"cand\": " + fmtNum(qd.cand) +
               ", \"delta\": " + fmtNum(qd.delta) + "}";
    }
    out += r.quantiles.empty() ? "],\n" : "\n  ],\n";
    out += "  \"scalars\": [";
    for (std::size_t i = 0; i < r.scalars.size(); ++i)
    {
        const ScalarDelta &sd = r.scalars[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"key\": \"" + obs::jsonEscape(sd.key) +
               "\", \"base\": " + fmtNum(sd.base) +
               ", \"cand\": " + fmtNum(sd.cand) +
               ", \"delta\": " + fmtNum(sd.delta) + "}";
    }
    out += r.scalars.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::string reportText(const Report &r, std::size_t topN)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "total in-pass seconds: base %.6f  cand %.6f  "
                  "delta %+.6f\n\n",
                  r.totalBaseSeconds, r.totalCandSeconds,
                  r.totalDeltaSeconds);
    out += buf;
    out += "pass attribution (worst regressor first):\n";
    std::snprintf(buf, sizeof(buf), "  %-24s %10s %10s %10s %8s %7s\n",
                  "pass", "base s", "cand s", "delta s", "ratio",
                  "share");
    out += buf;
    std::size_t shown = 0;
    for (const PassDelta &d : r.passes)
    {
        if (shown++ >= topN)
            break;
        std::snprintf(buf, sizeof(buf),
                      "  %-24s %10.6f %10.6f %+10.6f %8.3f %+6.1f%%\n",
                      d.pass.c_str(), d.baseSeconds, d.candSeconds,
                      d.deltaSeconds, d.ratio,
                      d.shareOfTotalDelta * 100.0);
        out += buf;
    }
    if (r.passes.size() > topN)
    {
        std::snprintf(buf, sizeof(buf),
                      "  ... %zu more passes (rerun with --top)\n",
                      r.passes.size() - topN);
        out += buf;
    }
    if (!r.topRegressors.empty())
    {
        out += "\ntop regressors:";
        std::size_t n = 0;
        for (const std::string &name : r.topRegressors)
        {
            if (n++ >= topN)
                break;
            out += " " + name;
        }
        out += "\n";
    }
    if (!r.quantiles.empty())
    {
        out += "\nhistogram quantile shifts:\n";
        for (const QuantileShift &q : r.quantiles)
        {
            std::snprintf(buf, sizeof(buf),
                          "  %-40s p%-4.3g %12.6g -> %-12.6g "
                          "(%+.6g)\n",
                          q.metric.c_str(), q.q * 100.0, q.base,
                          q.cand, q.delta);
            out += buf;
        }
    }
    if (!r.scalars.empty())
    {
        out += "\nchanged scalars:\n";
        for (const ScalarDelta &s : r.scalars)
        {
            std::snprintf(buf, sizeof(buf),
                          "  %-40s %12.6g -> %-12.6g (%+.6g)\n",
                          s.key.c_str(), s.base, s.cand, s.delta);
            out += buf;
        }
    }
    return out;
}

} // namespace reqisc::tools
