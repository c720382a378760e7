/**
 * @file
 * Per-layer probe of the grid-regeneration benchmark (perfbench/run.py).
 *
 * Times the calls into each layer of the exploration stack from outside
 * the program, on cells like those one benchmark workload regenerates:
 *
 *   model     core::Model evaluation of one analytic design point
 *   assembly  workloads::makeWorkload
 *   golden    sim::runGolden, the uninterrupted reference run
 *   decode    arch::DecodedProgram construction
 *   sim       sim::Simulator::run, normalised per simulated instruction
 *   cell      explore::evaluateJob on one physics cell
 *   lanes     explore::evaluateJobBatch on a fault point's seeded cells
 *             (the lane engine), per cell; and the lanes' mean occupancy
 *             as the engine reports it to the obs metrics registry
 *   campaign  explore::Campaign::run per analytic cell (scheduling,
 *             hashing and bookkeeping; no physics)
 *   store     explore::ResultCache append per record, warm open per store
 *
 * The lane batches are the fault grid's on either workload: figure-grids
 * has no batchable cell, so there the layer is measured but bypassed end
 * to end.
 *
 * Layers are measured round-robin until --seconds elapse; one sample is
 * the mean per call over one round, and each metric is the median
 * sample. Every call is a span kept in memory and written as a Chrome
 * trace (DIR/probe_trace.json) at exit. The last stdout line is one JSON
 * object with the metrics and the attempted/failed call counts.
 *
 *   eh_probe --workload fault-grid|figure-grids --seed N
 *            --seconds S --dir DIR
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/decoded.hh"
#include "core/model.hh"
#include "core/params.hh"
#include "energy/supply.hh"
#include "explore/cache.hh"
#include "explore/campaign.hh"
#include "explore/tasks.hh"
#include "obs/metrics.hh"
#include "runtime/clank.hh"
#include "runtime/dino.hh"
#include "sim/simulator.hh"
#include "util/log.hh"
#include "util/panic.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace {

using namespace eh;
using Clock = std::chrono::steady_clock;

/** One benchmark program on one platform (volatile = MSP430 + DINO). */
struct Bench
{
    std::string name;
    bool vol = false;
};

/** What a workload's layers are probed on. */
struct CellSet
{
    std::vector<Bench> benches;
    std::vector<explore::JobSpec> cells;
};

explore::JobSpec
faultCell(const std::string &w, const std::string &p, double rate,
          int cell = 0)
{
    return explore::JobSpec("fault")
        .set("workload", w)
        .set("policy", p)
        .set("rate", rate)
        .set("cell", cell);
}

/**
 * Each set is a cut-down version of what run.py regenerates for the
 * workload: the fault ablation grid, or the figure grids (validation and
 * Clank).
 */
CellSet
cellSetFor(const std::string &workload)
{
    CellSet set;
    if (workload == "fault-grid") {
        for (const char *w : {"crc", "sha"}) {
            set.benches.push_back({w, false});
            set.benches.push_back({w, true});
            for (const char *p : {"dino", "clank", "nvp"})
                for (double rate : {0.0, 1.0e-6, 1.0e-5})
                    set.cells.push_back(faultCell(w, p, rate));
        }
    } else if (workload == "figure-grids") {
        for (const char *w : {"crc", "sense", "ar"}) {
            set.benches.push_back({w, true});
            for (const char *p : {"hibernus", "mementos", "dino"})
                set.cells.push_back(explore::JobSpec("validation")
                                        .set("workload", std::string(w))
                                        .set("policy", std::string(p)));
        }
        for (const char *w : {"bitcount", "sha"}) {
            set.benches.push_back({w, false});
            set.cells.push_back(explore::JobSpec("clank")
                                    .set("workload", std::string(w))
                                    .set("trace", 0));
        }
    } else {
        fatalf("unknown workload '", workload,
               "' (fault-grid | figure-grids)");
    }
    return set;
}

/** Lane batches: the five seeded cells of some fault-grid points. */
std::vector<std::vector<explore::JobSpec>>
laneBatches()
{
    std::vector<std::vector<explore::JobSpec>> batches;
    for (const char *w : {"crc", "sha"}) {
        for (const char *p : {"dino", "clank", "nvp"}) {
            batches.emplace_back();
            for (int cell = 0; cell < 5; ++cell)
                batches.back().push_back(faultCell(w, p, 1.0e-6, cell));
        }
    }
    return batches;
}

/** A prepared benchmark program plus the platform it runs on. */
struct Prepared
{
    workloads::Workload w;
    sim::SimConfig cfg;
    double budget = 0.0;
};

/** The platform `eh_explore simulate` builds for the same choice. */
Prepared
prepare(const Bench &b)
{
    Prepared p{workloads::makeWorkload(
                   b.name, b.vol ? workloads::volatileLayout()
                                 : workloads::nonvolatileLayout()),
               {},
               0.0};
    p.cfg.sramUsedBytes = b.vol ? p.w.sramUsedBytes : 64;
    if (!b.vol)
        p.cfg.costs = arch::CostModel::cortexM0();
    const auto golden =
        sim::runGolden(p.w.program, p.cfg, p.w.resultAddrs);
    p.budget = std::max(golden.energy / 5.0, b.vol ? 3.0e6 : 1.0e6);
    return p;
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** Spans, samples and call accounting for one probe run. */
class Recorder
{
  public:
    Recorder() : origin(Clock::now()) {}

    /**
     * Run @p body as one span of layer @p layer. Returns the elapsed
     * nanoseconds, or -1 when the call threw or @p body reported a
     * wrong answer by returning false.
     */
    std::int64_t call(const std::string &layer,
                      const std::function<bool()> &body)
    {
        ++attempted;
        const auto t0 = Clock::now();
        bool ok = false;
        try {
            ok = body();
        } catch (const std::exception &e) {
            std::cerr << "probe: " << layer << ": " << e.what() << "\n";
        }
        const auto t1 = Clock::now();
        spans.push_back({layer, ns(t0), ns(t1) - ns(t0)});
        if (!ok) {
            ++failed;
            std::cerr << "probe: " << layer << " gave a wrong answer\n";
            return -1;
        }
        return ns(t1) - ns(t0);
    }

    void sample(const std::string &metric, double value)
    {
        samples[metric].push_back(value);
    }

    /** Open a round span; the calls inside it are its children. */
    std::size_t openRound()
    {
        spans.push_back({"round", ns(Clock::now()), 0});
        return spans.size() - 1;
    }

    void closeRound(std::size_t index)
    {
        spans[index].durNs = ns(Clock::now()) - spans[index].startNs;
    }

    void writeTrace(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            out << (i ? "," : "") << "{\"name\":\"" << spans[i].name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << static_cast<double>(spans[i].startNs) / 1e3
                << ",\"dur\":" << static_cast<double>(spans[i].durNs) / 1e3
                << "}";
        }
        out << "]}\n";
    }

    void printJson(std::ostream &out) const
    {
        out.precision(17);
        out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
        bool first = true;
        for (const auto &[name, values] : samples) {
            std::vector<double> v = values;
            std::sort(v.begin(), v.end());
            const std::size_t n = v.size();
            const double median =
                n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
            out << (first ? "" : ",") << "\"" << name << "\":" << median;
            first = false;
        }
        out << "}}\n";
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
    std::map<std::string, std::vector<double>> samples;
};

bool
resultsExact(sim::Simulator &s, const workloads::Workload &w)
{
    for (std::size_t i = 0; i < w.resultAddrs.size(); ++i)
        if (s.resultWord(w.resultAddrs[i]) != w.expected[i])
            return false;
    return true;
}

/** Model design points: tauB spread over a seeded log range. */
std::vector<core::Params>
modelPoints(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<core::Params> points;
    for (std::size_t i = 0; i < count; ++i) {
        core::Params p = core::illustrativeParams();
        const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        p.backupPeriod = std::pow(10.0, 3.0 * u);
        points.push_back(p);
    }
    return points;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    std::string dir = ".";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--dir")
            o.dir = value;
        else
            fatalf("unknown flag '", flag, "'");
    }
    if (o.workload.empty())
        fatalf("--workload is required");
    return o;
}

int
probeMain(const Options &opt)
{
    const CellSet set = cellSetFor(opt.workload);
    const auto batches = laneBatches();
    Recorder rec;

    // Untimed preparation: programs, platforms and budgets for the sim
    // layer, and the reference result of every cell, batched cells
    // included, from the per-cell path.
    std::vector<Prepared> prepared;
    for (const Bench &b : set.benches)
        prepared.push_back(prepare(b));
    auto evaluate = [&](const explore::JobSpec &spec) {
        Rng rng = Rng(opt.seed).split(spec.hash());
        return explore::evaluateJob(spec, rng);
    };
    std::vector<explore::JobResult> cellResults;
    for (const auto &spec : set.cells)
        cellResults.push_back(evaluate(spec));
    std::vector<std::vector<explore::JobResult>> batchResults;
    for (const auto &batch : batches) {
        batchResults.emplace_back();
        for (const auto &spec : batch)
            batchResults.back().push_back(evaluate(spec));
    }
    const auto points = modelPoints(opt.seed, 4096);
    constexpr std::size_t campaignCells = 256;
    constexpr std::size_t storeRecords = 512;

    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    for (unsigned round = 0; round < 3 || Clock::now() < deadline;
         ++round) {
        const std::size_t roundSpan = rec.openRound();

        const auto tm = rec.call("model", [&] {
            bool sane = true;
            for (const auto &p : points) {
                const core::Model m(p);
                const double avg = m.progress();
                sane &= std::isfinite(avg) && avg >= 0.0 &&
                        m.progress(core::DeadCycleMode::BestCase) >= avg;
            }
            return sane;
        });
        if (tm >= 0)
            rec.sample("model_eval_ns",
                       static_cast<double>(tm) / points.size());

        // Assembly, golden run and decode: the setup of every cell.
        double asmNs = 0.0, goldenNs = 0.0, decodeNs = 0.0;
        bool ok = true;
        for (std::size_t i = 0; i < set.benches.size(); ++i) {
            const Bench &b = set.benches[i];
            const Prepared &p = prepared[i];
            const auto ta = rec.call("assembly", [&] {
                const auto w = workloads::makeWorkload(
                    b.name, b.vol ? workloads::volatileLayout()
                                  : workloads::nonvolatileLayout());
                return w.expected == p.w.expected;
            });
            const auto tg = rec.call("golden", [&] {
                const auto g =
                    sim::runGolden(p.w.program, p.cfg, p.w.resultAddrs);
                return g.halted && g.resultWords == p.w.expected;
            });
            const auto td = rec.call("decode", [&] {
                const arch::DecodedProgram d(p.w.program, p.cfg.costs);
                return d.instructions().size() == p.w.program.size();
            });
            ok &= ta >= 0 && tg >= 0 && td >= 0;
            asmNs += static_cast<double>(ta);
            goldenNs += static_cast<double>(tg);
            decodeNs += static_cast<double>(td);
        }
        if (ok) {
            const double n = static_cast<double>(set.benches.size());
            rec.sample("assembly_us", asmNs / n / 1e3);
            rec.sample("golden_us", goldenNs / n / 1e3);
            rec.sample("decode_us", decodeNs / n / 1e3);
        }

        // Intermittent simulation under a constant supply.
        double simNs = 0.0, instructions = 0.0;
        ok = true;
        for (std::size_t i = 0; i < set.benches.size(); ++i) {
            const Prepared &p = prepared[i];
            const auto t = rec.call("sim", [&] {
                energy::ConstantSupply supply(p.budget);
                std::unique_ptr<runtime::BackupPolicy> pol;
                if (set.benches[i].vol)
                    pol = std::make_unique<runtime::Dino>(
                        runtime::DinoConfig{p.cfg.sramUsedBytes, true});
                else
                    pol = std::make_unique<runtime::Clank>(
                        runtime::ClankConfig{});
                sim::Simulator s(p.w.program, *pol, supply, p.cfg);
                const auto stats = s.run();
                instructions +=
                    static_cast<double>(s.cpu().instructionsExecuted());
                return stats.finished && resultsExact(s, p.w);
            });
            ok &= t >= 0;
            simNs += static_cast<double>(t);
        }
        if (ok && instructions > 0.0)
            rec.sample("sim_ns_per_instr", simNs / instructions);

        // Physics cells through the campaign dispatcher.
        double cellNs = 0.0;
        ok = true;
        for (std::size_t i = 0; i < set.cells.size(); ++i) {
            const auto t = rec.call("cell", [&] {
                const auto r = evaluate(set.cells[i]);
                return r.ok() && r.fields() == cellResults[i].fields();
            });
            ok &= t >= 0;
            cellNs += static_cast<double>(t);
        }
        if (ok)
            rec.sample("cell_ms", cellNs / set.cells.size() / 1e6);

        // Fault cells a whole fault point at a time, on the lane engine;
        // each lane must match the per-cell result.
        double laneNs = 0.0;
        std::size_t laneCells = 0;
        ok = true;
        for (std::size_t b = 0; b < batches.size(); ++b) {
            const auto t = rec.call("lanes", [&] {
                std::vector<Rng> rngs;
                for (const auto &spec : batches[b])
                    rngs.push_back(Rng(opt.seed).split(spec.hash()));
                const auto rs = explore::evaluateJobBatch(batches[b], rngs);
                bool same = rs.size() == batchResults[b].size();
                for (std::size_t i = 0; same && i < rs.size(); ++i)
                    same = rs[i].ok() &&
                           rs[i].fields() == batchResults[b][i].fields();
                return same;
            });
            ok &= t >= 0;
            laneNs += static_cast<double>(t);
            laneCells += batches[b].size();
        }
        if (ok)
            rec.sample("lane_cell_ms", laneNs / laneCells / 1e6);

        // Campaign engine overhead on physics-free cells.
        const auto tc = rec.call("campaign", [&] {
            explore::CampaignConfig cc;
            cc.name = "probe";
            cc.jobs = 1;
            cc.seed = opt.seed;
            cc.cache = false;
            cc.progress = false;
            explore::Campaign campaign(cc);
            for (std::size_t i = 0; i < campaignCells; ++i)
                campaign.add(explore::JobSpec("model").set(
                    "tauB", points[i].backupPeriod));
            const auto results = campaign.run(explore::evaluateJob);
            return std::all_of(results.begin(), results.end(),
                               [](const auto &r) { return r.ok(); });
        });
        if (tc >= 0)
            rec.sample("campaign_cell_us",
                       static_cast<double>(tc) / campaignCells / 1e3);

        // Result store: append into a new store, then reopen it warm.
        const std::string storeDir =
            opt.dir + "/probe_store_" + std::to_string(round);
        std::filesystem::remove_all(storeDir);
        const auto tw = rec.call("store_append", [&] {
            explore::ResultCache cache(storeDir, "probe", false, 0);
            for (std::size_t i = 0; i < storeRecords; ++i) {
                const std::size_t c = i % set.cells.size();
                cache.store(explore::JobSpec(set.cells[c]).set("rep", i),
                            opt.seed, cellResults[c]);
            }
            return cache.size() == storeRecords;
        });
        const auto tl = rec.call("store_load", [&] {
            explore::ResultCache cache(storeDir, "probe", false, 0);
            return cache.loadedRecords() == storeRecords;
        });
        std::filesystem::remove_all(storeDir);
        if (tw >= 0)
            rec.sample("store_append_us",
                       static_cast<double>(tw) / storeRecords / 1e3);
        if (tl >= 0)
            rec.sample("store_load_ms", static_cast<double>(tl) / 1e6);

        rec.closeRound(roundSpan);
    }

    // Share of a batch's lanes still running per lockstep round, averaged
    // over every batch the lanes layer ran.
    const auto occupancy =
        obs::metrics().histogram("lane.occupancy_pct").snapshot();
    if (occupancy.total() > 0)
        rec.sample("lane_occupancy_pct", occupancy.mean());

    rec.writeTrace(opt.dir + "/probe_trace.json");
    rec.printJson(std::cout);
    return rec.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    eh::setLogLevel(eh::LogLevel::Warn);
    try {
        return probeMain(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "probe: " << e.what() << "\n";
        return 2;
    }
}
