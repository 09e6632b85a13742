/**
 * @file
 * Traced replay of the benchmark's two radcrit_cli workloads through
 * the library's public functions, with a span around every call into
 * a layer. Spans are kept in memory and written as one JSON document
 * at exit, each with its self time (duration minus the time its
 * child spans cover), next to the global stats registry.
 *
 *   inject_clamr  op:    workload, simulate, analyze, csv
 *   store_dgemm   setup: workload, store.load (miss), simulate,
 *                        store.save
 *                 op:    workload, store.load (hit), analyze, csv
 *                 probe: logs.write, logs.parse (in-memory stream)
 *
 * "op" is the same work as the untraced radcrit_cli invocation the
 * benchmark times, and the CSV it writes must match that
 * invocation's bytes. The probe phase runs after the op and after
 * the stats snapshot, so it changes neither.
 *
 *   $ radcrit_trace --workload=store_dgemm --runs=12500 --jobs=4 \
 *       --seed=1 --dir=scratch --csv=hit.csv --out=trace.json
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "campaign/store.hh"
#include "common/cli.hh"
#include "common/csv.hh"
#include "common/logging.hh"
#include "exec/launch.hh"
#include "logs/beamlog.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"

using namespace radcrit;

namespace
{

/** In-memory span recorder; spans nest by construction order. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double startS = 0.0;
        double durS = -1.0;
        double childS = 0.0;
    };

    /** RAII span: open on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name)
            : tracer_(tracer), index_(tracer.open(std::move(name)))
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    /** Write the spans as a JSON array of objects. */
    void writeJson(std::ostream &os) const
    {
        os << "[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char times[128];
            std::snprintf(times, sizeof(times),
                          "\"start_s\": %.9f, \"dur_s\": %.9f, "
                          "\"self_s\": %.9f",
                          s.startS, s.durS, s.durS - s.childS);
            os << (i ? ",\n  " : "\n  ") << "{\"name\": \""
               << jsonEscape(s.name) << "\", \"parent\": "
               << s.parent << ", " << times << "}";
        }
        os << "\n]";
    }

  private:
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    int open(std::string name)
    {
        Span span;
        span.name = std::move(name);
        span.parent = open_.empty() ? -1 : open_.back();
        span.startS = now();
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void close(int index)
    {
        Span &span = spans_[index];
        span.durS = now() - span.startS;
        open_.pop_back();
        if (span.parent >= 0)
            spans_[span.parent].childS += span.durS;
    }

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** @return user + system CPU seconds this process has used. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

/** The per-run CSV, written exactly as radcrit_cli --csv does. */
void
writeRunCsv(const CampaignResult &res, const std::string &path)
{
    CsvWriter csv(path);
    csv.writeRow(runRowsHeader());
    for (const auto &row : runRows(res))
        csv.writeRow(row);
}

/** One radcrit_cli campaign, as the CLI configures it. */
struct Campaign
{
    DeviceModel device;
    std::unique_ptr<Workload> workload;
    CampaignConfig cfg;
};

Campaign
makeCampaign(Tracer &tracer, bool clamr, uint64_t runs, uint64_t seed,
             unsigned jobs)
{
    Tracer::Scope span(tracer, "workload");
    Campaign c{makeDevice(clamr ? DeviceId::XeonPhi : DeviceId::K40),
               nullptr, {}};
    c.workload = clamr ? makeClamrWorkload(c.device)
                       : makeDgemmWorkload(c.device, 256);
    c.cfg = defaultCampaign(runs, c.device.name, c.workload->name(),
                            c.workload->inputLabel());
    if (seed != 0)
        c.cfg.sim.seed = seed;
    c.cfg.sim.jobs = jobs;
    return c;
}

CampaignKey
keyOf(const Campaign &c)
{
    return CampaignKey{c.device.name, c.workload->name(),
                       c.workload->inputLabel(), c.cfg.sim};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("radcrit_trace");
    cli.addString("workload", "", "inject_clamr or store_dgemm");
    cli.addInt("runs", 0, "faulty runs in the campaign");
    cli.addInt("seed", 0, "campaign seed (0 = derived)");
    cli.addInt("jobs", 1, "worker threads");
    cli.addString("dir", "", "scratch directory (store cache)");
    cli.addString("csv", "", "per-run CSV of the op phase");
    cli.addString("out", "", "trace JSON to write");
    cli.parse(argc, argv);

    std::string workload = cli.getString("workload");
    bool clamr = workload == "inject_clamr";
    if (!clamr && workload != "store_dgemm")
        fatal("--workload must be inject_clamr or store_dgemm");
    if (cli.getInt("runs") <= 0 || cli.getInt("jobs") <= 0 ||
        cli.getInt("seed") < 0 || cli.getString("csv").empty() ||
        cli.getString("out").empty() || cli.getString("dir").empty())
        fatal("need --runs>0 --jobs>0 --seed>=0 --dir --csv --out");
    auto runs = static_cast<uint64_t>(cli.getInt("runs"));
    auto seed = static_cast<uint64_t>(cli.getInt("seed"));
    auto jobs = static_cast<unsigned>(cli.getInt("jobs"));

    Tracer tracer;
    double cpu_start = cpuSeconds();
    std::unique_ptr<CampaignStore> store;
    CampaignRaw raw;

    if (!clamr) {
        // The cold miss radcrit_cli --cache makes: look up, miss,
        // simulate, save.
        Tracer::Scope setup(tracer, "setup");
        store = std::make_unique<CampaignStore>(
            cli.getString("dir") + "/cache");
        Campaign c = makeCampaign(tracer, false, runs, seed, jobs);
        std::optional<CampaignRaw> cached;
        {
            Tracer::Scope span(tracer, "store.load");
            cached = store->load(keyOf(c));
        }
        if (cached)
            fatal("fresh cache '%s' already holds the campaign",
                  store->dir().c_str());
        CampaignRaw simulated;
        {
            Tracer::Scope span(tracer, "simulate");
            simulated =
                simulateCampaign(c.device, *c.workload, c.cfg.sim);
        }
        Tracer::Scope span(tracer, "store.save");
        store->save(simulated);
    }

    {
        Tracer::Scope op(tracer, "op");
        Campaign c = makeCampaign(tracer, clamr, runs, seed, jobs);
        if (clamr) {
            Tracer::Scope span(tracer, "simulate");
            raw = simulateCampaign(c.device, *c.workload, c.cfg.sim);
        } else {
            // The warm hit, rebuilt the way simulateOrLoad() does.
            std::optional<CampaignRaw> cached;
            {
                Tracer::Scope span(tracer, "store.load");
                cached = store->load(keyOf(c));
            }
            if (!cached)
                fatal("warm lookup missed in '%s'",
                      store->dir().c_str());
            raw = std::move(*cached);
            raw.sim = c.cfg.sim;
            raw.launch = buildLaunch(c.device, c.workload->traits());
            raw.stats = rebuildSimStats(raw, StatsRegistry::global());
        }
        CampaignResult res;
        {
            Tracer::Scope span(tracer, "analyze");
            res = analyzeCampaign(raw, c.cfg.analysis);
        }
        Tracer::Scope span(tracer, "csv");
        writeRunCsv(res, cli.getString("csv"));
    }
    double cpu_s = cpuSeconds() - cpu_start;
    StatsSnapshot stats = StatsRegistry::global().snapshot();

    uint64_t entry_bytes = 0;
    if (store) {
        entry_bytes = std::filesystem::file_size(
            store->pathFor(campaignKey(raw)));
        // Serialization and parsing alone, without file I/O.
        Tracer::Scope probe(tracer, "probe");
        std::stringstream log;
        {
            Tracer::Scope span(tracer, "logs.write");
            writeBeamLog(raw, log);
        }
        Tracer::Scope span(tracer, "logs.parse");
        if (readBeamLog(log).runs.size() != raw.runs.size())
            fatal("in-memory beam-log round trip lost runs");
    }

    std::ofstream out(cli.getString("out"));
    if (!out)
        fatal("cannot open trace file '%s'",
              cli.getString("out").c_str());
    {
        JsonObjectWriter obj(out);
        obj.field("workload", workload);
        obj.field("cpu_s", cpu_s);
        obj.field("store_hits", store ? store->hits() : 0);
        obj.field("store_misses", store ? store->misses() : 0);
        obj.field("store_quarantined",
                  store ? store->quarantined() : 0);
        obj.field("entry_bytes", entry_bytes);
        obj.beginRawField("spans");
        tracer.writeJson(out);
        obj.beginRawField("stats");
        stats.writeJson(out, 2);
    }
    out << "\n";
    if (!out)
        fatal("write error on trace file '%s'",
              cli.getString("out").c_str());
    return 0;
}
