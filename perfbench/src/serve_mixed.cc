/**
 * @file
 * serve-mixed: one in-process serve::Server with a 2-worker pool and a
 * result-cache directory, driven by 2 closed-loop clients (each sends
 * its next request only when the previous reply arrived): 4 threads,
 * the host's core count.
 *
 * Requests are small replay matrices drawn from the seed. In every
 * block of 4 requests a client sends, 3 resubmit read templates whose
 * cells the set-up put in the result cache (protocol, cache load, dump
 * verification) and 1 sends one of the client's write templates, which
 * carry their own [sim] seed. The client deletes a write template's
 * cells from the cache before resubmitting it, so every write misses,
 * simulates and stores. Reads and writes share one cache: a gain for
 * one that costs the other shows here, while the cycle loop barely
 * matters.
 */

#include <atomic>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hh"
#include "serve/server.hh"
#include "serve_load.hh"
#include "sim/result_cache.hh"
#include "wl/trace_cache.hh"

namespace perfbench
{

namespace
{

// The serve_sweep.scn replay windows, two checkpoints, out of 8k-
// instruction recordings.
constexpr u64 serveWarmup = 300;
constexpr u64 serveMeasure = 900;
constexpr u64 recordWarmup = 2000;
constexpr u64 recordMeasure = 6000;
constexpr u32 checkpoints = 2;
constexpr unsigned clients = 2;
constexpr unsigned serverJobs = 2;

const std::vector<std::string> servePool = {"gobmk", "sjeng",     "astar",
                                            "perlbench", "mcf", "hmmer"};

// Arm pairs of a request: each pairs a FIFO-history arm (about 7x the
// host cost per instruction) with a cheap one, so every template costs
// about the same and the seed moves which cells run, not how much work
// a run holds.
const std::vector<std::pair<std::string, std::string>> armPairs = {
    {"baseline", "rsep"}, {"zero-pred", "rsep+vpred"}, {"move-elim", "vpred"}};

/** A seeded pairing of the benchmark pool: pool-size / 2 disjoint pairs. */
std::vector<std::pair<std::string, std::string>>
benchPairs(u64 seed, u64 stream)
{
    std::vector<std::string> order = servePool;
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[seededDraw(seed, stream * 64 + i) % (i + 1)]);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (std::size_t i = 0; i + 1 < order.size(); i += 2)
        pairs.emplace_back(order[i], order[i + 1]);
    return pairs;
}

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(const Options &o)
        : opt(o), serveDir(o.workDir + "/serve"),
          traceDir(serveDir + "/traces"), cacheDir(serveDir + "/cache")
    {
    }

    ~ServeMixed() override
    {
        if (server)
            server->stop();
    }

    void
    setup(Tracer &tr) override
    {
        namespace fs = std::filesystem;
        if (server)
            server->stop();
        server.reset();
        fs::remove_all(serveDir);
        fs::create_directories(traceDir);

        auto t0 = Clock::now();
        {
            Tracer::Span s = tr.span("wl.recordTraces",
                                     servePool.size() * checkpoints);
            rsep::sim::MatrixOptions rec;
            rec.jobs = 1;
            rec.progress = false;
            rec.traceIo.recordDir = traceDir;
            rsep::sim::runMatrix({armConfig("baseline", recordWarmup,
                                            recordMeasure, checkpoints,
                                            seededDraw(opt.seed, 0))},
                                 servePool, rec);
        }
        recordSeconds = secondsSince(t0);

        // Read and write template sets each cover every (benchmark, arm)
        // pair of the pool exactly once: 3 benchmark pairs x 3 arm pairs.
        reads.clear();
        writes.assign(clients, {});
        {
            Tracer::Span s = tr.span("sim.runMatrix.reference");
            u64 readSeed = seededDraw(opt.seed, 0);
            for (const auto &bp : benchPairs(opt.seed, 1))
                for (const auto &ap : armPairs)
                    reads.push_back(makeTemplate(bp, ap, readSeed));
            for (unsigned c = 0; c < clients; ++c)
                for (const auto &bp : benchPairs(opt.seed, 2 + c))
                    for (const auto &ap : armPairs)
                        writes[c].push_back(makeTemplate(
                            bp, ap,
                            seededDraw(opt.seed, 100 + c * 16 +
                                                     writes[c].size())));
            readOrder.clear();
            for (unsigned c = 0; c < clients; ++c) {
                std::vector<std::size_t> order(reads.size());
                for (std::size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                for (std::size_t i = order.size() - 1; i > 0; --i)
                    std::swap(order[i],
                              order[seededDraw(opt.seed, 500 + c * 64 + i) %
                                    (i + 1)]);
                readOrder.push_back(std::move(order));
            }
        }

        rsep::serve::ServeOptions so;
        so.socketPath = serveDir + "/serve.sock";
        so.jobs = serverJobs;
        so.cacheDir = cacheDir;
        so.progress = false;
        server = std::make_unique<rsep::serve::Server>(so);
        std::string err;
        {
            Tracer::Span s = tr.span("serve.Server.start");
            if (!server->start(&err))
                throw std::runtime_error("serve-mixed: server start: " + err);
        }

        // Result-cache prefill: every read template once, verified.
        ServeClient client(server->socketPath());
        for (std::size_t t = 0; t < reads.size(); ++t) {
            RequestResult r = client.submit(reads[t], 0, tr);
            if (r.outcome != Outcome::Ok)
                throw std::runtime_error("serve-mixed: prefill: " + r.error);
        }
        nextRequest.assign(clients, 0);
    }

    void
    run(PassStats &ps, double min_seconds, std::size_t min_requests,
        Tracer &tr) override
    {
        before = server->counters();
        cacheBefore = rsep::wl::traceCache().stats();
        std::atomic<std::size_t> done{0};
        std::vector<PassStats> local(clients);
        std::vector<ServeSamples> localSamples(clients);
        std::vector<std::exception_ptr> errors(clients);
        double speedBefore = hostSpeed();
        auto t0 = Clock::now();
        auto client = [&](unsigned c) {
            try {
                ServeClient cl(server->socketPath());
                rsep::sim::ResultCache paths(cacheDir);
                for (;;) {
                    if (secondsSince(t0) >= min_seconds &&
                        done.load() >= min_requests)
                        break;
                    // Blocks of 4: one write at a seeded slot, reads
                    // cycling through a seeded order of the templates.
                    u64 i = nextRequest[c]++;
                    u64 block = i / 4;
                    u64 writeSlot =
                        seededDraw(opt.seed, 7000 + c * 1000003 + block) % 4;
                    const ServeRequest *req;
                    if (i % 4 == writeSlot) {
                        req = &writes[c][block % writes[c].size()];
                        forget(*req, paths);
                    } else {
                        u64 r = i - block - (i % 4 > writeSlot ? 1 : 0);
                        req = &reads[readOrder[c][r % reads.size()]];
                    }
                    u64 id = (static_cast<u64>(c) << 32) | i;
                    RequestResult r = cl.submit(*req, id, tr);
                    accountRequest(*req, r, local[c], localSamples[c]);
                    ++done;
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &t : threads)
            t.join();
        double secs = secondsSince(t0);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        for (unsigned c = 0; c < clients; ++c) {
            ps.insts += local[c].insts;
            ps.cells += local[c].cells;
            ps.tally.merge(local[c].tally);
            ps.requestMs.insert(ps.requestMs.end(),
                                local[c].requestMs.begin(),
                                local[c].requestMs.end());
        }
        samples = {};
        for (const ServeSamples &ls : localSamples)
            for (auto [dst, src] :
                 {std::pair{&samples.queueWaitMs, &ls.queueWaitMs},
                  std::pair{&samples.serverWallMs, &ls.serverWallMs},
                  std::pair{&samples.transportMs, &ls.transportMs},
                  std::pair{&samples.verifyMs, &ls.verifyMs}})
                dst->insert(dst->end(), src->begin(), src->end());
        // The clients' requests interleave on every core, so the whole
        // run is one chunk, at the host speed sampled around it.
        ps.closeChunk(secs, (speedBefore + hostSpeed()) / 2.0);
        after = server->counters();
        cacheAfter = rsep::wl::traceCache().stats();
    }

    std::size_t minRequests() const override { return 1000; }

    std::vector<std::string>
    benchmarks() const override
    {
        return servePool;
    }

    std::vector<SimOutput>
    lastOutput() const override
    {
        std::vector<SimOutput> outs;
        for (const ServeRequest &r : reads)
            outs.push_back(r.reference);
        for (const auto &perClient : writes)
            for (const ServeRequest &r : perClient)
                outs.push_back(r.reference);
        return outs;
    }

    void
    layerMetrics(LayerMetrics &m, Tracer &tr) override
    {
        unsigned tail = tailPercentile(minRequests());
        setLayer(m, "serve.queue_wait_ms.p50", median(samples.queueWaitMs));
        setLayer(m, "serve.queue_wait_ms.tail",
                 percentile(samples.queueWaitMs, tail));
        setLayer(m, "serve.server_wall_ms", median(samples.serverWallMs));
        setLayer(m, "serve.transport_ms", median(samples.transportMs));
        setLayer(m, "serve.dump_verify_ms", median(samples.verifyMs));
        setLayer(m, "serve.batched_cells",
                 static_cast<double>(after.batchedCells - before.batchedCells));
        setLayer(m, "serve.busy_rejections",
                 static_cast<double>(after.busyRejections -
                                     before.busyRejections));
        setLayer(m, "serve.errors",
                 static_cast<double>(after.errors - before.errors));
        setLayer(m, "serve.cache_hits",
                 static_cast<double>(after.cacheHits - before.cacheHits));
        setLayer(m, "serve.cells_run",
                 static_cast<double>(after.cellsRun - before.cellsRun));
        setLayer(m, "wl.trace_record_s", recordSeconds);
        u64 hits = cacheAfter.hits - cacheBefore.hits;
        u64 misses = cacheAfter.misses - cacheBefore.misses;
        setLayer(m, "wl.trace_cache.hits", static_cast<double>(hits));
        setLayer(m, "wl.trace_cache.misses", static_cast<double>(misses));
        setLayer(m, "wl.trace_cache.hit_ratio",
                 hits + misses ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0);
        setLayer(m, "wl.trace_decode_s", decodeAllTraces(traceDir, tr));
    }

  private:
    /** A request over two benchmarks and two arms, with its reference. */
    ServeRequest
    makeTemplate(const std::pair<std::string, std::string> &benches,
                 const std::pair<std::string, std::string> &arms,
                 u64 sim_seed)
    {
        std::vector<rsep::sim::Scenario> scenarios;
        for (const std::string &arm : {arms.first, arms.second})
            scenarios.push_back({arm, armConfig(arm, serveWarmup, serveMeasure,
                                                checkpoints, sim_seed)});
        return makeServeRequest(std::move(scenarios),
                                {benches.first, benches.second}, traceDir);
    }

    /** Delete @p req's cells from the result cache so they miss. */
    static void
    forget(const ServeRequest &req, const rsep::sim::ResultCache &paths)
    {
        for (const rsep::sim::Scenario &s : req.scenarios) {
            std::string hash = rsep::sim::configHash(s.config);
            for (const std::string &b : req.benchmarks)
                for (u32 p = 0; p < s.config.checkpoints; ++p) {
                    std::error_code ec;
                    std::filesystem::remove(
                        paths.cellPath({b, hash, p, s.config.seed}), ec);
                }
        }
    }

    Options opt;
    std::string serveDir;
    std::string traceDir;
    std::string cacheDir;
    std::unique_ptr<rsep::serve::Server> server;
    std::vector<ServeRequest> reads;
    std::vector<std::vector<ServeRequest>> writes; ///< per client.
    std::vector<std::vector<std::size_t>> readOrder; ///< per client.
    std::vector<u64> nextRequest;                  ///< per client.
    double recordSeconds = 0.0;
    ServeSamples samples;
    rsep::serve::Server::Counters before, after;
    rsep::wl::DecodedTraceCache::Stats cacheBefore, cacheAfter;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(const Options &opt)
{
    return std::make_unique<ServeMixed>(opt);
}

} // namespace perfbench
