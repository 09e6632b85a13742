#include "suite/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "campaign/engine.hh"
#include "campaign/stream.hh"
#include "common/logging.hh"
#include "exec/chaos.hh"
#include "exec/launch.hh"
#include "logs/beamlog.hh"
#include "obs/timeline.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "sim/sampler.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{

namespace
{

uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/**
 * One distinct campaign of the prepass: identity and the
 * everything needed to execute it, plus the results the plan entry
 * is assembled from after the dispatch.
 */
struct PrepassItem
{
    std::string key;
    /** First experiment that declared it. */
    std::string owner;
    DeviceModel device;
    std::unique_ptr<Workload> workload;
    CampaignConfig cfg;

    CampaignRaw raw;
    /** Precomputed default analysis (sharded prepass only). */
    std::optional<CampaignResult> analysis;
    uint64_t wallNs = 0;
    bool simulated = false;

    /** Store entry staged for a parse split over the workers. */
    std::unique_ptr<BeamLogText> staged;
    /** ns the workers spent parsing its pieces, summed. */
    std::atomic<uint64_t> parseNs{0};

    // Sharded-dispatch state: the strike sampler built once on the
    // caller-visible miss path (shared read-only by every worker),
    // and the claim/completion bookkeeping for a campaign whose
    // runs are spread over many workers.
    std::optional<StrikeSampler> sampler;
    std::atomic<uint64_t> runsDone{0};
    std::atomic<bool> claimed{false};
    /** Prepass-relative ns of the campaign's first claimed run. */
    uint64_t startNs = 0;
};

/**
 * Collect and dedup the campaigns the selected experiments
 * declare, in declaration order (which fixes owner attribution and
 * the sequential execution order, both identical to the historical
 * interleaved dedup-and-run loop).
 *
 * Requests dedup by value before any workload exists; the distinct
 * ones build their workloads in parallel on the shared pool, where
 * the golden registry computes each golden key once however many
 * requests share it. The plan key (labels + runs) then dedups
 * again, since it is what the store and the experiments address.
 */
std::vector<std::unique_ptr<PrepassItem>>
collectItems(const std::vector<Experiment *> &experiments,
             SuiteContext &ctx, ScheduleStats &stats)
{
    ScopedTimer timer(StatsRegistry::global(), "suite.collect");

    struct Declared
    {
        CampaignRequest req;
        /** First experiment that declared it. */
        std::string owner;
        DeviceModel device;
        std::unique_ptr<Workload> workload;
    };
    std::vector<Declared> declared;
    std::set<CampaignRequest> seen_requests;
    for (Experiment *exp : experiments) {
        uint64_t runs = ctx.runsFor(*exp);
        for (const CampaignRequest &req : exp->campaigns(runs)) {
            ++stats.requested;
            if (seen_requests.insert(req).second)
                declared.push_back({req, exp->info().name, {}, {}});
        }
    }

    ctx.pool().forDynamic(
        declared.size(), 1,
        [&](unsigned, uint64_t begin, uint64_t end) {
            for (uint64_t idx = begin; idx < end; ++idx) {
                Declared &d = declared[idx];
                d.device = makeDevice(d.req.device);
                d.workload = buildWorkload(d.device, d.req.workload);
            }
        });

    std::vector<std::unique_ptr<PrepassItem>> items;
    std::set<std::string> seen;
    for (Declared &d : declared) {
        std::string key = campaignPlanKey(
            d.device.name, d.workload->name(),
            d.workload->inputLabel(), d.req.runs);
        if (ctx.planned(key) || !seen.insert(key).second)
            continue;
        ++stats.distinct;

        auto item = std::make_unique<PrepassItem>();
        item->key = std::move(key);
        item->owner = std::move(d.owner);
        item->device = std::move(d.device);
        item->cfg = defaultCampaign(d.req.runs, item->device.name,
                                    d.workload->name(),
                                    d.workload->inputLabel());
        item->cfg.sim.jobs = ctx.jobs();
        item->cfg.sim.batchRuns = ctx.batchRuns();
        item->cfg.sim.ioThreads = ctx.ioThreads();
        item->workload = std::move(d.workload);
        items.push_back(std::move(item));
    }
    return items;
}

/** Emit the campaign-granular prepass progress line (--progress). */
void
progressLine(uint64_t done, uint64_t total,
             std::chrono::steady_clock::time_point prepass_start)
{
    double elapsed_s =
        static_cast<double>(elapsedNs(prepass_start)) / 1e9;
    double rate = elapsed_s > 0.0
        ? static_cast<double>(done) / elapsed_s
        : 0.0;
    double eta_s = rate > 0.0
        ? static_cast<double>(total - done) / rate
        : 0.0;
    inform("suite prepass: %llu/%llu distinct campaigns "
           "(%.2f campaigns/s, ETA %.1fs)",
           static_cast<unsigned long long>(done),
           static_cast<unsigned long long>(total), rate, eta_s);
}

/**
 * Sequential execution of one item: the full shared pool works on
 * this campaign alone, through the streaming runner when the
 * context streams. This is the historical prepass body.
 */
void
executeSequential(PrepassItem &item, SuiteContext &ctx)
{
    uint64_t hits_before = ctx.store() ? ctx.store()->hits() : 0;
    auto start = std::chrono::steady_clock::now();
    if (ctx.stream()) {
        // Batched engine + streamed store I/O; the plan entry
        // itself stays materialized for reuse.
        CollectRawSink collect;
        simulateOrLoadStream(item.device, *item.workload,
                             item.cfg.sim, ctx.store(), collect,
                             &ctx.pool());
        item.raw = collect.take();
    } else {
        item.raw = simulateOrLoad(item.device, *item.workload,
                                  item.cfg.sim, ctx.store(),
                                  &ctx.pool());
    }
    item.wallNs = elapsedNs(start);
    item.simulated =
        !(ctx.store() && ctx.store()->hits() > hits_before);
}

/** @return the campaign store's identity for one item. */
CampaignKey
storeKey(const PrepassItem &item)
{
    return {item.device.name, item.workload->name(),
            item.workload->inputLabel(), item.cfg.sim};
}

/**
 * @return the items in sharded phase A claim order: largest store
 * entry first. On a warm cache the biggest entry (the CLAMR
 * campaign, over half of the suite's bytes) has the most pieces to
 * parse and the longest resolve, so it must start at once rather
 * than behind smaller entries (longest-processing-time-first).
 * Misses have no entry and go last, in declaration order like ties.
 */
std::vector<PrepassItem *>
largestEntriesFirst(
    const std::vector<std::unique_ptr<PrepassItem>> &items,
    SuiteContext &ctx)
{
    std::vector<std::pair<uintmax_t, PrepassItem *>> sized;
    for (const auto &item : items) {
        std::error_code ec;
        uintmax_t bytes = ctx.store()
            ? std::filesystem::file_size(
                  ctx.store()->pathFor(storeKey(*item)), ec)
            : 0;
        sized.emplace_back(ec ? 0 : bytes, item.get());
    }
    std::stable_sort(sized.begin(), sized.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<PrepassItem *> order;
    for (const auto &entry : sized)
        order.push_back(entry.second);
    return order;
}

/**
 * Sharded phase A for one item, on the claiming worker thread: try
 * the store with the item's staged entry, its pieces already parsed
 * (materialized hit, same sim/launch/stats carry as
 * simulateOrLoad()), else prepare the campaign for the flattened
 * run dispatch — raw header, launch view, the shared read-only
 * strike sampler, and pre-sized run slots so phase B workers write
 * disjoint elements of a vector that never reallocates.
 *
 * @return true when the store served the campaign.
 */
bool
resolveStore(PrepassItem &item, SuiteContext &ctx)
{
    if (CampaignStore *store = ctx.store()) {
        if (auto hit = store->load(storeKey(item),
                                   std::move(item.staged))) {
            item.raw = std::move(*hit);
            // jobs/ioThreads are execution details outside the
            // key; carry the caller's values (same as
            // simulateOrLoad()).
            item.raw.sim = item.cfg.sim;
            item.raw.launch =
                buildLaunch(item.device, item.workload->traits());
            item.raw.stats = rebuildSimStats(
                item.raw, StatsRegistry::global());
            return true;
        }
    }
    item.raw.deviceName = item.device.name;
    item.raw.workloadName = item.workload->name();
    item.raw.inputLabel = item.workload->inputLabel();
    item.raw.sim = item.cfg.sim;
    item.raw.launch =
        buildLaunch(item.device, item.workload->traits());
    item.sampler.emplace(item.device, item.raw.launch);
    item.raw.sensitiveAreaAu = item.sampler->totalWeight();
    item.raw.runs.resize(item.cfg.sim.faultyRuns);
    return false;
}

/**
 * Sharded phase B: simulate run `i` of `item` into its
 * pre-allocated slot. Run i draws from runRng(config, i) against a
 * pristine workload instance and a read-only sampler, so the raw
 * bytes are identical to the pool-parallel runner regardless of
 * which worker claims which run. Retry/quarantine policy matches
 * the runner: a run that exhausts its attempt budget stays in the
 * campaign as an infra outcome instead of killing its siblings.
 */
void
simulateShardedRun(PrepassItem &item, Workload &workload,
                   uint64_t i)
{
    const SimConfig &config = item.cfg.sim;
    const ResilienceConfig &rz = config.resilience;
    RetryPolicy policy{std::max(rz.maxAttempts, 1u),
                       rz.softDeadlineNs, rz.backoffBaseNs};
    auto run_start = std::chrono::steady_clock::now();
    RawRun run;
    GuardReport guard = runGuarded(policy, [&](unsigned attempt) {
        if (ChaosEngine *engine = chaos())
            engine->onRunAttempt(i, attempt);
        Rng rng = runRng(config, i);
        run = simulateRun(*item.sampler, workload, config, i, rng);
    });
    if (guard.status != GuardStatus::Ok) {
        run = RawRun{};
        run.index = i;
        run.outcome = guard.status == GuardStatus::Timeout
            ? Outcome::InfraTimeout
            : Outcome::InfraError;
        warn("campaign run %llu quarantined after %u "
             "attempt(s)%s%s",
             static_cast<unsigned long long>(i), guard.attempts,
             guard.error.empty() ? "" : ": ",
             guard.error.c_str());
    }
    run.wallNs = elapsedNs(run_start);
    if (guard.retries() > 0) {
        StatsRegistry::global()
            .counter("resilience.retries")
            .inc(guard.retries());
    }
    item.raw.runs[i] = std::move(run);
}

/**
 * Sharded phase C for one missed item: rebuild the simulation
 * counters in store-hit shape (per-phase timers are execution
 * telemetry the flattened dispatch does not reconstruct), persist
 * the entry (serialized on a background I/O thread behind the
 * global gate when the context runs --io-threads), and fold the
 * default analysis — in run order, so the result is identical to a
 * later analyzeCampaign(). Analysis is skipped when a trace sink
 * or timeline is armed: both are single-writer side channels the
 * concurrent prepass must not drive from worker threads.
 */
void
finalizeSharded(PrepassItem &item, SuiteContext &ctx)
{
    item.raw.stats =
        rebuildSimStats(item.raw, StatsRegistry::global());
    if (CampaignStore *store = ctx.store()) {
        if (item.cfg.sim.ioThreads > 0) {
            std::unique_ptr<RawSink> save = store->saveSink();
            AsyncSaveSink async(*save, &IoThreadGate::global());
            CampaignRawSource source(item.raw,
                                     item.cfg.sim.batchRuns);
            pumpRaw(source, async);
        } else {
            store->save(item.raw);
        }
    }
    if (!traceSink() && !timeline())
        item.analysis =
            analyzeCampaign(item.raw, item.cfg.analysis);
}

} // anonymous namespace

ScheduleStats
scheduleCampaigns(const std::vector<Experiment *> &experiments,
                  SuiteContext &ctx)
{
    ScheduleStats stats;
    stats.sharded = ctx.shardCampaigns();

    std::vector<std::unique_ptr<PrepassItem>> items =
        collectItems(experiments, ctx, stats);
    auto prepass_start = std::chrono::steady_clock::now();

    if (stats.sharded && !items.empty()) {
        std::atomic<uint64_t> done{0};
        std::atomic<uint64_t> inflight{0};
        std::atomic<uint64_t> peak{0};
        Timeline *tl = timeline();
        auto enter = [&] {
            uint64_t now_in =
                inflight.fetch_add(1,
                                   std::memory_order_relaxed) +
                1;
            uint64_t prev = peak.load(std::memory_order_relaxed);
            while (now_in > prev &&
                   !peak.compare_exchange_weak(
                       prev, now_in, std::memory_order_relaxed)) {
            }
        };
        auto leave = [&] {
            inflight.fetch_sub(1, std::memory_order_relaxed);
        };
        auto lane = [&](unsigned worker) -> TimelineLane & {
            return tl->lane(worker + 1,
                            "worker " + std::to_string(worker));
        };
        PoolRunStats poolStats;
        PoolRunStats phaseStats;

        // Phase A — store resolution, largest entry first. A
        // warm prepass is mostly beam-log parsing, and one entry
        // (CLAMR's) holds over half of the bytes, so the parse is
        // split below the entry: stage every entry (read it, parse
        // its per-run lines), parse the #ERR pieces of all entries
        // in one flattened index space, then resolve each item.
        // Hits finish their load (and precompute their analysis);
        // misses build their raw header, sampler, and run slots
        // for the flattened dispatch below.
        std::vector<PrepassItem *> claim_order =
            largestEntriesFirst(items, ctx);
        if (CampaignStore *store = ctx.store()) {
            ctx.pool().forDynamic(
                items.size(), 1,
                [&](unsigned worker, uint64_t begin, uint64_t end) {
                    (void)worker;
                    for (uint64_t idx = begin; idx < end; ++idx) {
                        PrepassItem &item = *claim_order[idx];
                        auto start = std::chrono::steady_clock::now();
                        item.staged = store->stage(storeKey(item));
                        item.wallNs += elapsedNs(start);
                    }
                },
                &phaseStats);
            poolStats.absorb(phaseStats);
        }

        std::vector<std::pair<PrepassItem *, size_t>> pieces;
        for (PrepassItem *item : claim_order) {
            if (item->staged) {
                for (size_t p = 0; p < item->staged->pieces(); ++p)
                    pieces.emplace_back(item, p);
            }
        }
        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            pieces.size(), 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                for (uint64_t g = begin; g < end; ++g) {
                    auto [item, p] = pieces[g];
                    uint64_t span_begin = tl ? tl->nowNs() : 0;
                    auto start = std::chrono::steady_clock::now();
                    item->staged->parsePiece(p);
                    item->parseNs.fetch_add(
                        elapsedNs(start), std::memory_order_relaxed);
                    if (tl) {
                        lane(worker).span(
                            item->key, "prepass", span_begin,
                            tl->nowNs() - span_begin,
                            {{"campaign", item->key},
                             {"piece", std::to_string(p)},
                             {"source", "store"}});
                    }
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            items.size(), 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                for (uint64_t idx = begin; idx < end; ++idx) {
                    PrepassItem &item = *claim_order[idx];
                    enter();
                    uint64_t span_begin = tl ? tl->nowNs() : 0;
                    auto start = std::chrono::steady_clock::now();
                    item.simulated = !resolveStore(item, ctx);
                    if (!item.simulated && !traceSink() && !tl)
                        item.analysis = analyzeCampaign(
                            item.raw, item.cfg.analysis);
                    item.wallNs += item.parseNs.load() +
                        elapsedNs(start);
                    if (tl && !item.simulated) {
                        lane(worker).span(
                            item.key, "prepass", span_begin,
                            tl->nowNs() - span_begin,
                            {{"campaign", item.key},
                             {"source", "store"}});
                    }
                    leave();
                    if (!item.simulated) {
                        uint64_t d =
                            done.fetch_add(
                                1, std::memory_order_relaxed) +
                            1;
                        if (ctx.progress())
                            progressLine(d, items.size(),
                                         prepass_start);
                    }
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        // Phase B — flattened simulation: every missed campaign's
        // runs in one global index space, claimed run by run so
        // grains cross campaign boundaries and one expensive
        // campaign cannot serialize the tail. Each worker replays
        // on private lazily-taken workload clones; the sources
        // stay pristine (no worker ever injects on them), so
        // concurrent clone() calls are plain const reads.
        std::vector<PrepassItem *> misses;
        for (auto &item : items)
            if (item->simulated)
                misses.push_back(item.get());
        std::vector<uint64_t> offsets;
        offsets.reserve(misses.size() + 1);
        offsets.push_back(0);
        for (PrepassItem *item : misses)
            offsets.push_back(offsets.back() +
                              item->cfg.sim.faultyRuns);
        uint64_t total_runs = offsets.back();
        std::vector<std::vector<std::unique_ptr<Workload>>>
            clones(ctx.pool().jobs());
        for (auto &per_worker : clones)
            per_worker.resize(misses.size());

        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            total_runs, 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                for (uint64_t g = begin; g < end; ++g) {
                    size_t k = static_cast<size_t>(
                        std::upper_bound(offsets.begin(),
                                         offsets.end(), g) -
                        offsets.begin() - 1);
                    PrepassItem &item = *misses[k];
                    uint64_t i = g - offsets[k];
                    if (!item.claimed.exchange(
                            true, std::memory_order_relaxed)) {
                        item.startNs = elapsedNs(prepass_start);
                        enter();
                    }
                    auto &clone = clones[worker][k];
                    if (!clone)
                        clone = item.workload->clone();

                    uint64_t span_begin = tl ? tl->nowNs() : 0;
                    simulateShardedRun(item, *clone, i);
                    if (tl) {
                        lane(worker).span(
                            item.key, "prepass", span_begin,
                            tl->nowNs() - span_begin,
                            {{"campaign", item.key},
                             {"run", std::to_string(i)},
                             {"source", "simulated"}});
                    }

                    uint64_t fin =
                        item.runsDone.fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                    if (fin == item.cfg.sim.faultyRuns) {
                        item.wallNs =
                            elapsedNs(prepass_start) -
                            item.startNs;
                        leave();
                    }
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        // Phase C — per-campaign finalization of the misses:
        // stats rebuild, store save (async behind the I/O gate),
        // and the precomputed default analysis, all folded across
        // the workers.
        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            misses.size(), 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                (void)worker;
                for (uint64_t idx = begin; idx < end; ++idx) {
                    PrepassItem &item = *misses[idx];
                    enter();
                    auto start = std::chrono::steady_clock::now();
                    finalizeSharded(item, ctx);
                    item.wallNs += elapsedNs(start);
                    leave();
                    uint64_t d =
                        done.fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                    if (ctx.progress())
                        progressLine(d, items.size(),
                                     prepass_start);
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        publishPoolStats(poolStats, StatsRegistry::global());
        stats.concurrentPeak = peak.load();
    } else {
        for (size_t idx = 0; idx < items.size(); ++idx) {
            executeSequential(*items[idx], ctx);
            if (ctx.progress())
                progressLine(idx + 1, items.size(),
                             prepass_start);
        }
        stats.concurrentPeak = items.empty() ? 0 : 1;
    }
    stats.prepassWallNs = elapsedNs(prepass_start);

    // Plan insertion happens after the dispatch, on the caller
    // thread, in declaration order: addPlanned() is not
    // thread-safe and panics on duplicates, which the dedup above
    // guarantees cannot happen.
    for (auto &item : items) {
        stats.wallNs += item->wallNs;
        if (item->simulated)
            ++stats.simulated;
        else
            ++stats.storeHits;

        SuiteContext::PlannedCampaign entry;
        entry.raw = std::move(item->raw);
        entry.workload = std::move(item->workload);
        entry.owner = std::move(item->owner);
        entry.wallNs = item->wallNs;
        entry.simulated = item->simulated;
        entry.defaultAnalysis = std::move(item->analysis);
        ctx.addPlanned(item->key, std::move(entry));
    }
    if (stats.wallNs > stats.prepassWallNs)
        stats.overlapNs = stats.wallNs - stats.prepassWallNs;
    return stats;
}

} // namespace radcrit
