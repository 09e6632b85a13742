#include "kernels/clamr.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/golden_registry.hh"
#include "kernels/inject_util.hh"

namespace radcrit
{

namespace
{

/** Height floor used when dividing by h (desingularization). */
constexpr double hFloor = 1e-8;

double
cacheUtil(double ws_bits, double cache_bits, double liveness)
{
    return std::min(1.0, ws_bits / cache_bits) * liveness;
}

/** Rusanov numerical flux for the 1D-split shallow-water system. */
struct Flux
{
    double fh, fhu, fhv;
};

Flux
rusanovX(double hl, double hul, double hvl, double hr, double hur,
         double hvr)
{
    double ul = hul / std::max(hl, hFloor);
    double ur = hur / std::max(hr, hFloor);
    double cl = std::abs(ul) + std::sqrt(Clamr::g *
                                         std::max(hl, 0.0));
    double cr = std::abs(ur) + std::sqrt(Clamr::g *
                                         std::max(hr, 0.0));
    double a = std::max(cl, cr);

    double fl_h = hul;
    double fl_hu = hul * ul + 0.5 * Clamr::g * hl * hl;
    double fl_hv = hvl * ul;
    double fr_h = hur;
    double fr_hu = hur * ur + 0.5 * Clamr::g * hr * hr;
    double fr_hv = hvr * ur;

    Flux f;
    f.fh = 0.5 * (fl_h + fr_h) - 0.5 * a * (hr - hl);
    f.fhu = 0.5 * (fl_hu + fr_hu) - 0.5 * a * (hur - hul);
    f.fhv = 0.5 * (fl_hv + fr_hv) - 0.5 * a * (hvr - hvl);
    return f;
}

/** Minmod slope limiter. */
double
minmod(double a, double b)
{
    if (a * b <= 0.0)
        return 0.0;
    return std::abs(a) < std::abs(b) ? a : b;
}

} // anonymous namespace

void
SweState::resize(size_t cells)
{
    h.assign(cells, 0.0);
    hu.assign(cells, 0.0);
    hv.assign(cells, 0.0);
}

Clamr::Clamr(const DeviceModel &device, int64_t grid, int64_t steps,
             uint64_t seed, int64_t paper_scale)
    : device_(device), n_(grid), steps_(steps),
      paperScale_(paper_scale)
{
    if (grid < 64 || grid % 8 != 0)
        fatal("CLAMR grid %lld must be a multiple of 8 >= 64",
              static_cast<long long>(grid));
    if (steps < 16)
        fatal("CLAMR needs at least 16 steps");
    if (paper_scale <= 0)
        fatal("CLAMR paper_scale must be positive");

    snapInterval_ = std::max<int64_t>(steps_ / 16, 1);

    // The golden reads the grid, the step count (which fixes the
    // checkpoint interval) and the seed, and no device field.
    gold_ = GoldenRegistry::global().get<Golden>(
        "kernel.clamr.golden",
        "grid=" + std::to_string(n_) +
            " steps=" + std::to_string(steps_) +
            " seed=" + std::to_string(seed),
        [&] { return computeGolden(seed); });
    lastMass_ = gold_->mass;

    // --- Launch traits at paper-equivalent scale -------------------
    int64_t n_eff = n_ * paperScale_;
    uint64_t mean_amr = 0;
    for (uint64_t v : gold_->amrSeries)
        mean_amr += v;
    mean_amr /= gold_->amrSeries.size();
    double amr_factor = static_cast<double>(mean_amr) /
        (static_cast<double>(n_) * static_cast<double>(n_));

    traits_.name = name_;
    traits_.totalThreads = static_cast<uint64_t>(
        static_cast<double>(n_eff) * static_cast<double>(n_eff) *
        amr_factor);
    traits_.blockThreads = tile * tile;
    traits_.perBlockLocalBytes = tile * tile * 3 * 8;
    traits_.registersPerThread = 56;
    traits_.flopsPerThread = static_cast<double>(steps_) * 60.0;
    // Many branch-heavy border/refinement tests (Table I:
    // irregular) and one kernel call per step.
    traits_.controlFlowIntensity = 0.8;
    traits_.sfuIntensity = 0.4; // sqrt in the wave speeds
    traits_.kernelInvocations = static_cast<uint64_t>(steps_);
    traits_.doublePrecision = true;

    double ws_bits = 3.0 * static_cast<double>(n_eff) * n_eff *
        64.0;
    bool gpu = device_.schedulerKind == SchedulerKind::Hardware;

    // Compute-bound with irregular accesses (Table I): state is
    // reloaded and overwritten constantly, so storage liveness is
    // short; the criticality mass sits in the control-heavy logic.
    traits_.setUtil(ResourceKind::RegisterFile, 0.15);
    if (device_.hasResource(ResourceKind::L1Cache)) {
        traits_.setUtil(ResourceKind::L1Cache, cacheUtil(
            ws_bits, device_.resource(ResourceKind::L1Cache)
            .sizeBits, 0.15));
    }
    if (device_.hasResource(ResourceKind::SharedMemory))
        traits_.setUtil(ResourceKind::SharedMemory, 0.15);
    if (device_.hasResource(ResourceKind::L2Cache)) {
        traits_.setUtil(ResourceKind::L2Cache, cacheUtil(
            ws_bits, device_.resource(ResourceKind::L2Cache)
            .sizeBits, gpu ? 0.2 : 0.2));
    }
    traits_.setUtil(ResourceKind::Scheduler, 1.0);
    traits_.setUtil(ResourceKind::Dispatcher, 0.9);
    traits_.setUtil(ResourceKind::Fpu, 0.9);
    if (device_.hasResource(ResourceKind::Sfu))
        traits_.setUtil(ResourceKind::Sfu, 0.5);
    traits_.setUtil(ResourceKind::ControlLogic, 0.9);
    traits_.setUtil(ResourceKind::PipelineLatch, 0.9);
    if (device_.hasResource(ResourceKind::Interconnect))
        traits_.setUtil(ResourceKind::Interconnect, 0.5);
}

Clamr::Golden
Clamr::computeGolden(uint64_t seed) const
{
    // Circular dam break (the standard CLAMR test problem): a
    // column of deep water at the centre over a shallow background.
    // The paper's runs last 5000 steps, so almost every strike
    // lands on a fully developed wave field; our scaled runs are
    // shorter, so we seed satellite columns and a mild sloshing
    // momentum so the whole domain is wave-active at every strike
    // time (documented in DESIGN.md).
    Rng rng(seed);
    auto cells = static_cast<size_t>(n_) * n_;
    SweState init;
    init.resize(cells);
    double cx = static_cast<double>(n_) / 2.0;
    double cy = static_cast<double>(n_) / 2.0;
    double radius = static_cast<double>(n_) / 8.0;
    struct Column { double r, c, rad, height; };
    std::vector<Column> columns{{cy, cx, radius, 10.0}};
    for (int sat = 0; sat < 6; ++sat) {
        columns.push_back({
            rng.uniform(0.1, 0.9) * static_cast<double>(n_),
            rng.uniform(0.1, 0.9) * static_cast<double>(n_),
            static_cast<double>(n_) / 16.0,
            rng.uniform(3.0, 6.0)});
    }
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            double h = 1.0;
            for (const auto &col : columns) {
                double dr = static_cast<double>(r) + 0.5 - col.r;
                double dc = static_cast<double>(c) + 0.5 - col.c;
                if (dr * dr + dc * dc < col.rad * col.rad)
                    h = std::max(h, col.height);
            }
            size_t i = r * n_ + c;
            init.h[i] = h;
            // Smooth long-wavelength slosh.
            double ph = 2.0 * M_PI / static_cast<double>(n_);
            init.hu[i] = 0.3 * h *
                std::sin(ph * static_cast<double>(c) * 2.0);
            init.hv[i] = 0.3 * h *
                std::cos(ph * static_cast<double>(r) * 3.0);
        }
    }

    // Golden run with checkpoints and AMR cell-count series.
    AmrMap amr(n_, 0.5);
    Golden gold;
    SweState cur = std::move(init);
    SweState nxt;
    nxt.resize(cells);
    gold.snaps.push_back(cur);
    amr.update(cur.h);
    gold.amrSeries.push_back(amr.effectiveCells());
    for (int64_t it = 0; it < steps_; ++it) {
        step(cur, nxt);
        std::swap(cur, nxt);
        if ((it + 1) % snapInterval_ == 0 && it + 1 < steps_) {
            gold.snaps.push_back(cur);
            amr.update(cur.h);
            gold.amrSeries.push_back(amr.effectiveCells());
        }
    }
    gold.mass = mass(cur);
    gold.state = std::move(cur);
    return gold;
}

std::string
Clamr::inputLabel() const
{
    int64_t n_eff = n_ * paperScale_;
    return std::to_string(n_eff) + "x" + std::to_string(n_eff) +
        " cells";
}

SdcRecord
Clamr::emptyRecord() const
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {n_, n_, 1};
    return rec;
}

double
Clamr::mass(const SweState &state)
{
    double m = 0.0;
    for (double h : state.h)
        m += h;
    return m;
}

void
Clamr::step(const SweState &src, SweState &dst) const
{
    // Second-order MUSCL reconstruction (minmod limiter) with
    // Rusanov interface fluxes, unsplit 2D update, reflective
    // boundaries (ghosts mirror the interior cell with the normal
    // momentum negated). The low numerical diffusion of the
    // second-order scheme is what lets injected perturbations
    // persist and propagate as waves instead of being smeared away
    // — the behaviour the paper reports for CLAMR.
    //
    // Interface fluxes are evaluated once per interface and
    // accumulated with opposite signs into both neighbouring
    // cells, so total mass is conserved to the rounding of the
    // per-cell additions.
    double lam = dt_; // dx = dy = 1

    // Cell access with one reflective ghost layer per side; `swap`
    // mirrors the normal momentum for the direction being swept.
    auto cell = [&](int64_t r, int64_t c, double &h, double &hn,
                    double &ht, bool sweep_x) {
        double sign = 1.0;
        if (r < 0) { r = 0; if (!sweep_x) sign = -1.0; }
        if (r >= n_) { r = n_ - 1; if (!sweep_x) sign = -1.0; }
        if (c < 0) { c = 0; if (sweep_x) sign = -1.0; }
        if (c >= n_) { c = n_ - 1; if (sweep_x) sign = -1.0; }
        size_t i = r * n_ + c;
        h = src.h[i];
        if (sweep_x) {
            hn = sign * src.hu[i];
            ht = src.hv[i];
        } else {
            hn = sign * src.hv[i];
            ht = src.hu[i];
        }
    };

    // Limited edge states of cell (r, c) toward +/- normal
    // direction for the given sweep.
    auto edges = [&](int64_t r, int64_t c, bool sweep_x, bool plus,
                     double &h, double &hn, double &ht) {
        double hm, hnm, htm, h0, hn0, ht0, hp, hnp, htp;
        int64_t rm = sweep_x ? r : r - 1;
        int64_t cm = sweep_x ? c - 1 : c;
        int64_t rp = sweep_x ? r : r + 1;
        int64_t cp = sweep_x ? c + 1 : c;
        cell(rm, cm, hm, hnm, htm, sweep_x);
        cell(r, c, h0, hn0, ht0, sweep_x);
        cell(rp, cp, hp, hnp, htp, sweep_x);
        double half = plus ? 0.5 : -0.5;
        h = h0 + half * minmod(h0 - hm, hp - h0);
        hn = hn0 + half * minmod(hn0 - hnm, hnp - hn0);
        ht = ht0 + half * minmod(ht0 - htm, htp - ht0);
        // Reconstruction must not drive the depth negative.
        h = std::max(h, hFloor);
    };

    dst.h = src.h;
    dst.hu = src.hu;
    dst.hv = src.hv;

    // X sweep: interfaces between (r, k-1) and (r, k), k in [0, n].
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t k = 0; k <= n_; ++k) {
            double hl = 0.0, hul = 0.0, hvl = 0.0;
            double hr = 0.0, hur = 0.0, hvr = 0.0;
            if (k < n_)
                edges(r, k, true, false, hr, hur, hvr);
            if (k > 0)
                edges(r, k - 1, true, true, hl, hul, hvl);
            // Wall ghosts mirror the reconstructed interior edge
            // with the normal momentum negated, making the wall
            // mass flux exactly zero.
            if (k == 0) {
                hl = hr; hul = -hur; hvl = hvr;
            }
            if (k == n_) {
                hr = hl; hur = -hul; hvr = hvl;
            }
            Flux f = rusanovX(hl, hul, hvl, hr, hur, hvr);
            if (k > 0) {
                size_t i = r * n_ + (k - 1);
                dst.h[i] -= lam * f.fh;
                dst.hu[i] -= lam * f.fhu;
                dst.hv[i] -= lam * f.fhv;
            }
            if (k < n_) {
                size_t i = r * n_ + k;
                dst.h[i] += lam * f.fh;
                dst.hu[i] += lam * f.fhu;
                dst.hv[i] += lam * f.fhv;
            }
        }
    }

    // Y sweep: interfaces between (k-1, c) and (k, c). The solver
    // is reused with hv as the normal momentum.
    for (int64_t c = 0; c < n_; ++c) {
        for (int64_t k = 0; k <= n_; ++k) {
            double hl = 0.0, hvl = 0.0, hul = 0.0;
            double hr = 0.0, hvr = 0.0, hur = 0.0;
            if (k < n_)
                edges(k, c, false, false, hr, hvr, hur);
            if (k > 0)
                edges(k - 1, c, false, true, hl, hvl, hul);
            if (k == 0) {
                hl = hr; hvl = -hvr; hul = hur;
            }
            if (k == n_) {
                hr = hl; hvr = -hvl; hur = hul;
            }
            Flux g = rusanovX(hl, hvl, hul, hr, hvr, hur);
            if (k > 0) {
                size_t i = (k - 1) * n_ + c;
                dst.h[i] -= lam * g.fh;
                dst.hv[i] -= lam * g.fhu;
                dst.hu[i] -= lam * g.fhv;
            }
            if (k < n_) {
                size_t i = k * n_ + c;
                dst.h[i] += lam * g.fh;
                dst.hv[i] += lam * g.fhu;
                dst.hu[i] += lam * g.fhv;
            }
        }
    }
}

int64_t
Clamr::strikeStep(const Strike &strike) const
{
    auto it = static_cast<int64_t>(strike.timeFraction *
                                   static_cast<double>(steps_));
    return std::clamp<int64_t>(it, 0, steps_ - 1);
}

void
Clamr::runWithCorruption(int64_t it0, int64_t persist,
                         const Corruptor &corrupt, SdcRecord &out)
{
    int64_t snap = std::min<int64_t>(it0 / snapInterval_,
                                     static_cast<int64_t>(
                                         gold_->snaps.size()) - 1);
    SweState cur = gold_->snaps[static_cast<size_t>(snap)];
    SweState nxt;
    nxt.resize(cur.h.size());
    int64_t it_end = std::min(steps_, it0 + persist);
    for (int64_t it = snap * snapInterval_; it < steps_; ++it) {
        if (it >= it0 && it < it_end)
            corrupt(cur, it);
        step(cur, nxt);
        std::swap(cur, nxt);
    }
    lastMass_ = mass(cur);
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            double read = cur.h[r * n_ + c];
            double expected = gold_->state.h[r * n_ + c];
            if (read != expected || std::isnan(read))
                out.elements.push_back({{r, c, 0}, read,
                                        expected});
        }
    }
}

SdcRecord
Clamr::inject(const Strike &strike, Rng &rng)
{
    ScopedTick tick(injectTimer_);
    SdcRecord out = emptyRecord();
    // Strike-local randomness derives only from the strike's own
    // entropy: the injected record is a pure function of the
    // Strike, which lets beam logs replay campaigns exactly.
    (void)rng;
    Rng srng(Rng::hashCombine(strike.entropy, 0xC1A32ULL));
    switch (strike.manifestation) {
      case Manifestation::BitFlipValue:
        injectValueFlip(strike, srng, out);
        break;
      case Manifestation::BitFlipInputLine:
        injectInputLineFlip(strike, srng, out);
        break;
      case Manifestation::WrongOperation:
        injectWrongOperation(strike, srng, out);
        break;
      case Manifestation::SkippedChunk:
        injectSkippedChunk(strike, srng, out);
        break;
      case Manifestation::StaleData:
        injectStaleData(strike, srng, out);
        break;
      case Manifestation::MisscheduledBlock:
        injectMisscheduledBlock(strike, srng, out);
        break;
      default:
        panic("CLAMR: unhandled manifestation %d",
              static_cast<int>(strike.manifestation));
    }
    return out;
}

void
Clamr::injectValueFlip(const Strike &strike, Rng &rng,
                       SdcRecord &out)
{
    int64_t it0 = strikeStep(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c = rng.uniformRange(0, n_ - 1);
    // h is read most often (fluxes and both wave speeds), so it is
    // the most exposed field; this weighting also sets the
    // mass-check detector coverage (paper ref. [4]: 82%).
    int field = rng.bernoulli(0.6) ? 0
        : (rng.bernoulli(0.5) ? 1 : 2);
    uint32_t bits = strike.burstBits;
    Rng flip_rng = rng.split(1);
    Corruptor corrupt = [=, this, &flip_rng](SweState &state,
                                             int64_t) {
        size_t i = r * n_ + c;
        if (field == 0) {
            // Mantissa plus two low exponent bits: keeps h positive
            // and within the CFL-stable range (larger excursions
            // abort the run and count as crashes).
            state.h[i] = flipBitsBounded(state.h[i], bits, 53,
                                         flip_rng);
        } else {
            double &v = field == 1 ? state.hu[i] : state.hv[i];
            if (flip_rng.bernoulli(0.1))
                v = -v; // sign flip is bounded for momentum
            else
                v = flipBitsBounded(v, bits, 53, flip_rng);
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
Clamr::injectInputLineFlip(const Strike &strike, Rng &rng,
                           SdcRecord &out)
{
    int64_t it0 = strikeStep(strike);
    int64_t line_cells = std::max<uint32_t>(
        device_.cacheLineBytes / 8, 1);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, n_ - 1) / line_cells *
        line_cells;
    int64_t c1 = std::min(n_, c0 + line_cells);
    bool gpu = device_.schedulerKind == SchedulerKind::Hardware;
    int64_t persist = strike.resource == ResourceKind::L2Cache
        ? (gpu ? 2 : 4) : 1;

    auto values = std::make_shared<std::vector<double>>();
    uint32_t bits = strike.burstBits;
    Rng flip_rng = rng.split(2);
    Corruptor corrupt = [=, this, &flip_rng](SweState &state,
                                             int64_t) {
        if (values->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                values->push_back(state.h[r * n_ + c]);
            for (uint32_t bflip = 0; bflip < bits; ++bflip) {
                auto i = flip_rng.uniformInt(values->size());
                (*values)[i] = flipBitsBounded((*values)[i], 1, 51,
                                               flip_rng);
            }
        }
        for (int64_t c = c0; c < c1; ++c)
            state.h[r * n_ + c] = (*values)[c - c0];
    };
    runWithCorruption(it0, persist, corrupt, out);
}

void
Clamr::injectWrongOperation(const Strike &strike, Rng &rng,
                            SdcRecord &out)
{
    // One work chunk computes a wrong update for one step.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    Rng noise_rng = rng.split(3);
    Corruptor corrupt = [=, this, &noise_rng](SweState &state,
                                              int64_t) {
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c) {
                size_t i = r * n_ + c;
                // Noise scaled to the local state keeps the run
                // inside the CFL-stable range (larger excursions
                // abort and count as crashes, see file comment).
                double h = state.h[i];
                state.h[i] = std::max(
                    0.05, h + noise_rng.normal(0.0, 0.35 * h));
                state.hu[i] += noise_rng.normal(0.0,
                                                0.8 * state.h[i]);
                state.hv[i] += noise_rng.normal(0.0,
                                                0.8 * state.h[i]);
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
Clamr::injectSkippedChunk(const Strike &strike, Rng &rng,
                          SdcRecord &out)
{
    // One chunk's update silently skipped: its cells lag one step.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    auto stale = std::make_shared<SweState>();
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        if (stale->h.empty()) {
            stale->resize(tile * tile);
            size_t k = 0;
            for (int64_t r = tr; r < tr + tile; ++r) {
                for (int64_t c = tc; c < tc + tile; ++c) {
                    size_t i = r * n_ + c;
                    stale->h[k] = state.h[i];
                    stale->hu[k] = state.hu[i];
                    stale->hv[k] = state.hv[i];
                    ++k;
                }
            }
            return;
        }
        size_t k = 0;
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c) {
                size_t i = r * n_ + c;
                state.h[i] = stale->h[k];
                state.hu[i] = stale->hu[k];
                state.hv[i] = stale->hv[k];
                ++k;
            }
        }
    };
    runWithCorruption(it0, 5, corrupt, out);
}

void
Clamr::injectStaleData(const Strike &strike, Rng &rng,
                       SdcRecord &out)
{
    // A halo row segment of heights is served stale for two steps.
    int64_t it0 = strikeStep(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, n_ - 1) / tile * tile;
    int64_t c1 = std::min(n_, c0 + 4 * tile);
    auto stale = std::make_shared<std::vector<double>>();
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        if (stale->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                stale->push_back(state.h[r * n_ + c]);
            return;
        }
        for (int64_t c = c0; c < c1; ++c)
            state.h[r * n_ + c] = (*stale)[c - c0];
    };
    runWithCorruption(it0, 3, corrupt, out);
}

void
Clamr::injectMisscheduledBlock(const Strike &strike, Rng &rng,
                               SdcRecord &out)
{
    // One chunk receives the state computed for another chunk.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sc = rng.uniformRange(0, tiles - 1) * tile;
    if (sr == tr && sc == tc)
        sc = (sc + tile) % n_;
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        for (int64_t dr = 0; dr < tile; ++dr) {
            for (int64_t dc = 0; dc < tile; ++dc) {
                size_t dst = (tr + dr) * n_ + tc + dc;
                size_t src = (sr + dr) * n_ + sc + dc;
                state.h[dst] = state.h[src];
                state.hu[dst] = state.hu[src];
                state.hv[dst] = state.hv[src];
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

} // namespace radcrit
