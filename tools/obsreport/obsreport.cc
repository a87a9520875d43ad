/**
 * @file
 * CLI front of tools/obsreport: perf-regression attribution between
 * two instrumented runs. All the real work lives in report.cc; this
 * file only parses flags, slurps files, and renders.
 *
 * Exit codes: 0 report produced; 2 usage, I/O or parse errors.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obsreport/report.hh"

namespace
{

using reqisc::tools::RunData;

void printUsage(std::ostream &os)
{
    os << "usage: obsreport [options] BASE.json CAND.json\n"
          "\n"
          "Attribute the perf delta between two instrumented runs:\n"
          "per-pass absolute and share-of-total-delta breakdown,\n"
          "top-regressors ranking, histogram quantile shifts, and\n"
          "scalar diffs. BASE/CAND are --json outputs of either\n"
          "reqisc-compile or bench_service (shape is detected).\n"
          "\n"
          "options:\n"
          "  --metrics-base FILE   Prometheus snapshot of the base\n"
          "                        run (reqisc-compile "
          "--metrics-out)\n"
          "  --metrics-cand FILE   same, candidate run\n"
          "  --trace-base FILE     Chrome trace of the base run\n"
          "                        (--trace-out); summed span\n"
          "                        durations stand in for a missing\n"
          "                        BASE.json summary\n"
          "  --trace-cand FILE     same, candidate run\n"
          "  --json                machine-readable report\n"
          "  --top N               passes shown in the text report\n"
          "                        (default 10)\n"
          "  --out FILE            write the report to FILE\n"
          "  -h, --help            this message\n";
}

bool slurp(const std::string &path, std::string &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return static_cast<bool>(f);
}

struct SideInputs
{
    std::string jsonPath;
    std::string metricsPath;
    std::string tracePath;
};

/** Build one side's RunData; returns false (with a message on
 *  stderr) on I/O or parse failure. A trace only substitutes for a
 *  missing --json summary — using both would double-count the pass
 *  spans the summary already aggregates. */
bool loadSide(const SideInputs &in, const char *side, RunData &run)
{
    try
    {
        std::string text;
        if (!in.jsonPath.empty())
        {
            if (!slurp(in.jsonPath, text))
            {
                std::cerr << "obsreport: cannot read " << in.jsonPath
                          << "\n";
                return false;
            }
            ingestBenchJson(run, text, in.jsonPath);
        }
        else if (!in.tracePath.empty())
        {
            if (!slurp(in.tracePath, text))
            {
                std::cerr << "obsreport: cannot read "
                          << in.tracePath << "\n";
                return false;
            }
            ingestTraceJson(run, text, in.tracePath);
        }
        if (!in.metricsPath.empty())
        {
            if (!slurp(in.metricsPath, text))
            {
                std::cerr << "obsreport: cannot read "
                          << in.metricsPath << "\n";
                return false;
            }
            ingestPromText(run, text);
        }
    }
    catch (const std::exception &e)
    {
        std::cerr << "obsreport: " << side << ": " << e.what()
                  << "\n";
        return false;
    }
    if (run.passSeconds.empty() && run.scalars.empty() &&
        run.histograms.empty())
    {
        std::cerr << "obsreport: no input for the " << side
                  << " run (give a summary JSON, --metrics-" << side
                  << " or --trace-" << side << ")\n";
        return false;
    }
    return true;
}

} // namespace

int main(int argc, char **argv)
{
    SideInputs base, cand;
    std::string outPath;
    bool json = false;
    std::size_t topN = 10;

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i)
    {
        const std::string arg = argv[i];
        const auto value = [&](std::string &dst) {
            if (i + 1 >= argc)
            {
                std::cerr << "obsreport: " << arg
                          << " needs a value\n";
                return false;
            }
            dst = argv[++i];
            return true;
        };
        if (arg == "-h" || arg == "--help")
        {
            printUsage(std::cout);
            return 0;
        }
        else if (arg == "--json")
            json = true;
        else if (arg == "--metrics-base")
        {
            if (!value(base.metricsPath))
                return 2;
        }
        else if (arg == "--metrics-cand")
        {
            if (!value(cand.metricsPath))
                return 2;
        }
        else if (arg == "--trace-base")
        {
            if (!value(base.tracePath))
                return 2;
        }
        else if (arg == "--trace-cand")
        {
            if (!value(cand.tracePath))
                return 2;
        }
        else if (arg == "--out")
        {
            if (!value(outPath))
                return 2;
        }
        else if (arg == "--top")
        {
            std::string v;
            if (!value(v))
                return 2;
            try
            {
                topN = static_cast<std::size_t>(std::stoul(v));
            }
            catch (const std::exception &)
            {
                std::cerr << "obsreport: --top: expected a "
                             "number, got '"
                          << v << "'\n";
                return 2;
            }
        }
        else if (!arg.empty() && arg[0] == '-')
        {
            std::cerr << "obsreport: unknown option " << arg
                      << "\n";
            printUsage(std::cerr);
            return 2;
        }
        else
            positional.push_back(arg);
    }
    if (positional.size() > 2)
    {
        std::cerr << "obsreport: at most two positional summary "
                     "files (base, cand)\n";
        return 2;
    }
    if (!positional.empty())
        base.jsonPath = positional[0];
    if (positional.size() > 1)
        cand.jsonPath = positional[1];

    RunData baseRun, candRun;
    if (!loadSide(base, "base", baseRun) ||
        !loadSide(cand, "cand", candRun))
        return 2;

    const reqisc::tools::Report report =
        reqisc::tools::compare(baseRun, candRun);
    const std::string rendered =
        json ? reqisc::tools::reportJson(report)
             : reqisc::tools::reportText(report, topN);
    if (outPath.empty())
        std::cout << rendered;
    else
    {
        std::ofstream f(outPath,
                        std::ios::binary | std::ios::trunc);
        f << rendered;
        f.flush();
        if (!f)
        {
            std::cerr << "obsreport: cannot write " << outPath
                      << "\n";
            return 2;
        }
    }

    return 0;
}
