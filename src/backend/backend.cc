#include "backend/backend.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "backend/json.hh"

namespace reqisc::backend
{

namespace
{

/** Values this close count as equal in Backend::isHomogeneous. */
constexpr double kHomogeneityTol = 1e-12;

[[noreturn]] void
schemaError(const std::string &context, int line,
            const std::string &msg)
{
    throw JsonError(context + ":" + std::to_string(line) + ": " +
                    msg);
}

/** Required member of `obj`, with kind check. */
const JsonValue &
require(const JsonValue &obj, const std::string &key,
        JsonValue::Kind kind, const std::string &context,
        const std::string &where)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        schemaError(context, obj.line,
                    where + ": missing required field '" + key + "'");
    if (v->kind != kind)
        schemaError(context, v->line,
                    where + "." + key + ": expected " +
                        JsonValue::kindName(kind) + ", got " +
                        JsonValue::kindName(v->kind));
    return *v;
}

/** Optional numeric member; returns `fallback` when absent. */
double
optionalNumber(const JsonValue &obj, const std::string &key,
               double fallback, const std::string &context,
               const std::string &where, int *line_out = nullptr)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (!v->isNumber())
        schemaError(context, v->line,
                    where + "." + key + ": expected number, got " +
                        JsonValue::kindName(v->kind));
    if (line_out)
        *line_out = v->line;
    return v->number;
}

void
rejectUnknownKeys(const JsonValue &obj,
                  std::initializer_list<const char *> known,
                  const std::string &context,
                  const std::string &where)
{
    for (const auto &[key, value] : obj.object) {
        bool ok = false;
        for (const char *k : known)
            if (key == k)
                ok = true;
        if (!ok)
            schemaError(context, value.line,
                        where + ": unknown field '" + key + "'");
    }
}

uarch::Coupling
parseCoupling(const JsonValue &v, const std::string &context,
              const std::string &where)
{
    if (!v.isObject())
        schemaError(context, v.line,
                    where + ": expected object, got " +
                        JsonValue::kindName(v.kind));
    uarch::Coupling cpl;
    if (v.find("type")) {
        // Shorthand: {"type": "xy"|"xx", "g": strength}.
        rejectUnknownKeys(v, {"type", "g"}, context, where);
        const JsonValue &type = require(v, "type",
                                        JsonValue::Kind::String,
                                        context, where);
        const double g = optionalNumber(v, "g", 1.0, context, where);
        if (g <= 0.0)
            schemaError(context, v.line,
                        where + ".g: coupling strength must be "
                        "positive, got " + std::to_string(g));
        if (type.str == "xy")
            cpl = uarch::Coupling::xy(g);
        else if (type.str == "xx")
            cpl = uarch::Coupling::xx(g);
        else
            schemaError(context, type.line,
                        where + ".type: unknown coupling type '" +
                            type.str + "' (expected \"xy\" or "
                            "\"xx\")");
        return cpl;
    }
    rejectUnknownKeys(v, {"a", "b", "c"}, context, where);
    cpl.a = require(v, "a", JsonValue::Kind::Number, context, where)
                .number;
    cpl.b = optionalNumber(v, "b", 0.0, context, where);
    cpl.c = optionalNumber(v, "c", 0.0, context, where);
    if (cpl.strength() <= 0.0)
        schemaError(context, v.line,
                    where + ": coupling strength a + b + |c| must "
                    "be positive");
    if (!cpl.isCanonical(1e-9))
        schemaError(context, v.line,
                    where + ": coupling coefficients must be "
                    "canonical (a >= b >= |c|, a > 0)");
    return cpl;
}

} // namespace

double
QubitCalibration::decayRate() const
{
    double r = 0.0;
    if (std::isfinite(t1) && t1 > 0.0)
        r += 0.5 / t1;
    if (std::isfinite(t2) && t2 > 0.0)
        r += 0.5 / t2;
    return r;
}

Backend::Backend(std::string name,
                 std::vector<QubitCalibration> qubits,
                 std::vector<EdgeProperties> edges)
    : name_(std::move(name)), qubits_(std::move(qubits)),
      edges_(std::move(edges)), topo_(route::Topology::chain(1))
{
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(edges_.size());
    for (const EdgeProperties &e : edges_)
        pairs.emplace_back(e.a, e.b);
    topo_ = route::Topology::custom(numQubits(), pairs, name_);
}

Backend
Backend::uniform(const route::Topology &topo,
                 const uarch::Coupling &cpl,
                 const QubitCalibration &qubit, double p0)
{
    std::vector<QubitCalibration> qubits(
        static_cast<size_t>(topo.numQubits()), qubit);
    std::vector<EdgeProperties> edges;
    edges.reserve(topo.edges().size());
    for (const auto &[a, b] : topo.edges())
        edges.push_back(EdgeProperties{a, b, cpl, p0});
    return Backend(topo.name(), std::move(qubits),
                   std::move(edges));
}

Backend
Backend::fromJson(const std::string &text,
                  const std::string &context)
{
    const JsonValue doc = parseJson(text, context);
    if (!doc.isObject())
        schemaError(context, doc.line,
                    "chip file: expected a top-level object");
    rejectUnknownKeys(doc,
                     {"name", "description", "qubits", "edges"},
                     context, "chip");

    std::string name = "chip";
    if (const JsonValue *n = doc.find("name")) {
        if (!n->isString())
            schemaError(context, n->line,
                        std::string("chip.name: expected string, "
                                    "got ") +
                            JsonValue::kindName(n->kind));
        name = n->str;
    }

    const JsonValue &qubits_v = require(
        doc, "qubits", JsonValue::Kind::Array, context, "chip");
    if (qubits_v.array.empty())
        schemaError(context, qubits_v.line,
                    "chip.qubits: must list at least one qubit");
    std::vector<QubitCalibration> qubits;
    qubits.reserve(qubits_v.array.size());
    for (size_t i = 0; i < qubits_v.array.size(); ++i) {
        const JsonValue &q = qubits_v.array[i];
        const std::string where =
            "qubits[" + std::to_string(i) + "]";
        if (!q.isObject())
            schemaError(context, q.line,
                        where + ": expected object, got " +
                            JsonValue::kindName(q.kind));
        rejectUnknownKeys(q, {"t1", "t2", "readoutError"}, context,
                          where);
        QubitCalibration cal;
        int line = q.line;
        cal.t1 = optionalNumber(q, "t1", cal.t1, context, where,
                                &line);
        if (cal.t1 <= 0.0 || std::isnan(cal.t1))
            schemaError(context, line,
                        where + ".t1: must be positive, got " +
                            std::to_string(cal.t1));
        line = q.line;
        cal.t2 = optionalNumber(q, "t2", cal.t2, context, where,
                                &line);
        if (cal.t2 <= 0.0 || std::isnan(cal.t2))
            schemaError(context, line,
                        where + ".t2: must be positive, got " +
                            std::to_string(cal.t2));
        line = q.line;
        cal.readoutError = optionalNumber(q, "readoutError", 0.0,
                                          context, where, &line);
        if (cal.readoutError < 0.0 || cal.readoutError >= 1.0 ||
            std::isnan(cal.readoutError))
            schemaError(context, line,
                        where + ".readoutError: must be in [0, 1)");
        qubits.push_back(cal);
    }
    const int n = static_cast<int>(qubits.size());

    const JsonValue &edges_v = require(
        doc, "edges", JsonValue::Kind::Array, context, "chip");
    if (edges_v.array.empty())
        schemaError(context, edges_v.line,
                    "chip.edges: must list at least one edge");
    std::vector<EdgeProperties> edges;
    edges.reserve(edges_v.array.size());
    for (size_t i = 0; i < edges_v.array.size(); ++i) {
        const JsonValue &e = edges_v.array[i];
        const std::string where = "edges[" + std::to_string(i) + "]";
        if (!e.isObject())
            schemaError(context, e.line,
                        where + ": expected object, got " +
                            JsonValue::kindName(e.kind));
        rejectUnknownKeys(e, {"qubits", "coupling", "p0"}, context,
                          where);
        const JsonValue &pair = require(
            e, "qubits", JsonValue::Kind::Array, context, where);
        if (pair.array.size() != 2 || !pair.array[0].isNumber() ||
            !pair.array[1].isNumber())
            schemaError(context, pair.line,
                        where + ".qubits: expected a pair of qubit "
                        "indices");
        EdgeProperties edge;
        for (int k = 0; k < 2; ++k) {
            const double idx = pair.array[static_cast<size_t>(k)]
                                   .number;
            if (idx != std::floor(idx) || idx < 0.0 || idx >= n)
                schemaError(
                    context, pair.line,
                    where + ".qubits[" + std::to_string(k) + "] = " +
                        std::to_string(static_cast<long>(idx)) +
                        ": out of range [0, " + std::to_string(n) +
                        ")");
            (k == 0 ? edge.a : edge.b) = static_cast<int>(idx);
        }
        if (edge.a == edge.b)
            schemaError(context, pair.line,
                        where + ".qubits: self-loop on q" +
                            std::to_string(edge.a));
        if (edge.a > edge.b)
            std::swap(edge.a, edge.b);
        for (size_t j = 0; j < edges.size(); ++j)
            if (edges[j].a == edge.a && edges[j].b == edge.b)
                schemaError(context, pair.line,
                            where + ": duplicate of edges[" +
                                std::to_string(j) + "] (q" +
                                std::to_string(edge.a) + ", q" +
                                std::to_string(edge.b) + ")");
        edge.coupling = parseCoupling(
            require(e, "coupling", JsonValue::Kind::Object, context,
                    where),
            context, where + ".coupling");
        int line = e.line;
        edge.p0 = optionalNumber(e, "p0", edge.p0, context, where,
                                 &line);
        if (edge.p0 < 0.0 || edge.p0 >= 1.0 || std::isnan(edge.p0))
            schemaError(context, line,
                        where + ".p0: must be in [0, 1)");
        edges.push_back(edge);
    }

    Backend b(std::move(name), std::move(qubits), std::move(edges));
    if (!b.topology().isConnected())
        schemaError(context, edges_v.line,
                    "chip.edges: the topology is disconnected "
                    "(every qubit must be reachable from q0)");
    return b;
}

Backend
Backend::fromJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw JsonError(path + ": cannot open chip file");
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(text.str(), path);
}

bool
Backend::hasEdge(int a, int b) const
{
    if (a > b)
        std::swap(a, b);
    for (const EdgeProperties &e : edges_)
        if (e.a == a && e.b == b)
            return true;
    return false;
}

const EdgeProperties &
Backend::edge(int a, int b) const
{
    if (a > b)
        std::swap(a, b);
    for (const EdgeProperties &e : edges_)
        if (e.a == a && e.b == b)
            return e;
    throw std::invalid_argument(
        "backend '" + name_ + "': no edge (q" + std::to_string(a) +
        ", q" + std::to_string(b) + ")");
}

bool
Backend::isHomogeneous() const
{
    constexpr double tol = kHomogeneityTol;
    for (const EdgeProperties &e : edges_) {
        const EdgeProperties &ref = edges_.front();
        if (std::abs(e.coupling.a - ref.coupling.a) > tol ||
            std::abs(e.coupling.b - ref.coupling.b) > tol ||
            std::abs(e.coupling.c - ref.coupling.c) > tol ||
            std::abs(e.p0 - ref.p0) > tol)
            return false;
    }
    for (const QubitCalibration &q : qubits_) {
        const QubitCalibration &ref = qubits_.front();
        // Infinite T1/T2 compare equal; mixed finite/infinite do not.
        if (q.t1 != ref.t1 &&
            !(std::abs(q.t1 - ref.t1) <= tol))
            return false;
        if (q.t2 != ref.t2 && !(std::abs(q.t2 - ref.t2) <= tol))
            return false;
        if (std::abs(q.readoutError - ref.readoutError) > tol)
            return false;
    }
    return true;
}

isa::DurationModel
Backend::durationModel() const
{
    isa::DurationModel model;
    const EdgeProperties *strongest = nullptr;
    for (const EdgeProperties &e : edges_) {
        model.edgeCoupling[{e.a, e.b}] = e.coupling;
        if (!strongest ||
            e.coupling.strength() > strongest->coupling.strength())
            strongest = &e;
    }
    if (strongest)
        model.coupling = strongest->coupling;
    return model;
}

isa::NoiseModel
Backend::noiseModel() const
{
    isa::NoiseModel noise;
    noise.t1PerQubit.reserve(qubits_.size());
    noise.t2PerQubit.reserve(qubits_.size());
    for (const QubitCalibration &q : qubits_) {
        noise.t1PerQubit.push_back(q.t1);
        noise.t2PerQubit.push_back(q.t2);
    }
    for (const EdgeProperties &e : edges_)
        noise.p0PerEdge[{e.a, e.b}] = e.p0;
    return noise;
}

uarch::Coupling
targetCoupling(const Backend *chip)
{
    if (chip && chip->isHomogeneous() && !chip->edges().empty())
        return chip->edges().front().coupling;
    return uarch::Coupling::xy(1.0);
}

} // namespace reqisc::backend
