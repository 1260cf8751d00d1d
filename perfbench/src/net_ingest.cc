// net_ingest: the networked collection path with no simulator.
//
// One process, one event-loop thread. Up to nproc agents, each a core Agent
// with its own AgentTransport and NetClient, stream samples over loopback
// TCP to one NetServer. The server's frame handler (benchmark code) decodes
// the CPI2SMB1 batch, feeds a flat Aggregator that was restored from a
// checkpoint the benchmark made, and acks. The loop is closed: every agent
// keeps its ack window full. Each agent offers one machine-minute of samples
// (one per task) and flushes, so one batch on the wire is one
// machine-minute.
//
// The traffic is fleet_steady's: every agent streams the task list of one
// machine of that fleet (its job and task names, platform and nominal CPI
// and CPU usage), and the checkpoint holds "yesterday" for every task of the
// fleet, so the fleet is the cell.

#include "net_ingest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/aggregator.h"
#include "net/agent_transport.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "reference.h"
#include "sim_workloads.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wire/sample_codec.h"

namespace perfbench {
namespace {

using cpi2::Agent;
using cpi2::AgentTransport;
using cpi2::Aggregator;
using cpi2::CpiSample;
using cpi2::CpiSpec;
using cpi2::EventLoop;
using cpi2::MicroTime;
using cpi2::NetClient;
using cpi2::NetServer;
using cpi2::StrFormat;
using cpi2::kMicrosPerMinute;
using cpi2::kMicrosPerSecond;

struct NetConfig {
  Size size = Size::kFull;
  int agents = 4;
  int history_minutes = 10;       // "yesterday": what the checkpoint holds
  int minutes_per_window = 6000;  // machine-minutes per equal-work window
  int trace_minutes = 40000;      // fixed work of a traced run, all agents
  int setups = 15;                // a set-up takes milliseconds: median of many
  int window = 8;                 // AgentTransport ack window
};

NetConfig MakeNetConfig(const RunOptions& options) {
  NetConfig c;
  c.size = options.size;
  if (options.size == Size::kSmoke) {
    c.agents = 2;
    c.history_minutes = 6;
    c.minutes_per_window = 50;
    c.trace_minutes = 400;
    c.setups = 1;
  }
  return c;
}

constexpr MicroTime kDay = 24 * 60 * kMicrosPerMinute;
// The fleet's placement is one fixed draw (fleet_steady's seed-1 placement),
// so every seed streams the same tasks; the seed draws the values.
constexpr uint64_t kPlacementSeed = 1;
// Minutes of value draws per task; the stream replays them.
constexpr int kCycleMinutes = 64;

// One task of the fleet: its names and its nominal values there.
struct StreamTask {
  std::string job;
  std::string task;
  std::string machine;
  std::string platform;
  double cpi = 1.0;       // Task::BaseCpiOn(its machine's platform)
  double cpi_cv = 0.0;    // TaskSpec::cpi_noise_cv
  double usage = 0.0;     // TaskSpec::base_cpu_demand
  double usage_cv = 0.0;  // TaskSpec::demand_cv
};

struct Population {
  std::vector<std::vector<StreamTask>> agents;  // the task lists of the agents' machines
  std::vector<StreamTask> cell;                  // every other task of the fleet
};

// The agents take machines spread evenly over the fleet, so both of its
// platforms stream.
Population MakePopulation(const NetConfig& config) {
  const std::unique_ptr<cpi2::Cluster> fleet = MakeFleet(config.size, kPlacementSeed);
  const std::vector<cpi2::Machine*>& machines = fleet->machines();
  std::vector<int> agent_of(machines.size(), -1);
  for (int a = 0; a < config.agents; ++a) {
    agent_of[static_cast<size_t>(a) * machines.size() / static_cast<size_t>(config.agents)] = a;
  }
  Population population;
  population.agents.resize(static_cast<size_t>(config.agents));
  for (size_t m = 0; m < machines.size(); ++m) {
    cpi2::Machine* machine = machines[m];
    for (cpi2::Task* task : machine->Tasks()) {
      StreamTask stream;
      stream.job = task->spec().job_name;
      stream.task = task->name();
      stream.machine = machine->name();
      stream.platform = machine->platform().name;
      stream.cpi = task->BaseCpiOn(machine->platform());
      stream.cpi_cv = task->spec().cpi_noise_cv;
      stream.usage = task->spec().base_cpu_demand;
      stream.usage_cv = task->spec().demand_cv;
      (agent_of[m] >= 0 ? population.agents[static_cast<size_t>(agent_of[m])] : population.cell)
          .push_back(std::move(stream));
    }
  }
  return population;
}

// The simulator's mean-one lognormal noise with coefficient of variation cv.
double Noise(cpi2::Rng& rng, double cv) {
  if (cv <= 0.0) {
    return 1.0;
  }
  const double sigma2 = std::log(1.0 + cv * cv);
  return rng.LogNormal(-0.5 * sigma2, std::sqrt(sigma2));
}

// One agent's sample stream: one sample per task per minute, at an offset
// within the minute drawn per task, with values drawn from the seed around
// the task's nominal CPI and usage (kCycleMinutes of draws, replayed).
class Generator {
 public:
  Generator(const std::vector<StreamTask>& tasks, uint64_t seed, int agent) {
    cpi2::Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(agent) * 7919 + 3);
    for (const StreamTask& task : tasks) {
      CpiSample sample;
      sample.jobname = task.job;
      sample.task = task.task;
      sample.machine = task.machine;
      sample.platforminfo = task.platform;
      samples_.push_back(sample);
      offsets_.push_back(static_cast<MicroTime>(rng.Uniform(0.0, 50.0) * kMicrosPerSecond));
      for (int m = 0; m < kCycleMinutes; ++m) {
        cpi_.push_back(task.cpi * Noise(rng, task.cpi_cv));
        usage_.push_back(task.usage * Noise(rng, task.usage_cv));
      }
    }
    if (!tasks.empty()) {
      machine_ = tasks.front().machine;
      platform_ = tasks.front().platform;
    }
  }

  int tasks() const { return static_cast<int>(samples_.size()); }
  const std::string& machine() const { return machine_; }
  const std::string& platform() const { return platform_; }
  const std::string& job_name(int t) const { return samples_[static_cast<size_t>(t)].jobname; }
  const std::string& task_name(int t) const { return samples_[static_cast<size_t>(t)].task; }

  // Sample of task `t` in minute `minute` (since `origin`); valid until the
  // next call for the same task.
  const CpiSample& Make(int64_t minute, int t, MicroTime origin) {
    const size_t slot = static_cast<size_t>(t) * kCycleMinutes +
                        static_cast<size_t>(minute % kCycleMinutes);
    CpiSample& sample = samples_[static_cast<size_t>(t)];
    sample.timestamp = origin + minute * kMicrosPerMinute + offsets_[static_cast<size_t>(t)];
    sample.cpi = cpi_[slot];
    sample.cpu_usage = usage_[slot];
    sample.l3_miss_per_instruction = 0.002 * cpi_[slot];
    return sample;
  }

 private:
  std::string machine_;
  std::string platform_;
  std::vector<CpiSample> samples_;
  std::vector<MicroTime> offsets_;
  std::vector<double> cpi_;
  std::vector<double> usage_;
};

cpi2::Cpi2Params AggregatorParams() {
  cpi2::Cpi2Params params;
  params.min_tasks_for_spec = 5;
  params.min_samples_per_task = 5;
  params.sample_dedup_window = 30 * kMicrosPerMinute;  // exactly-once across replays
  return params;
}

cpi2::Cpi2Params AgentParams(const NetConfig& config, int tasks) {
  cpi2::Cpi2Params params;
  params.sample_outbox_capacity = 4 * config.window * tasks;
  params.wire_batch_max_samples = tasks;  // one batch = one machine-minute
  params.wire_batch_max_age = 0;
  params.delivery_retry_backoff = 0;
  params.delivery_retry_backoff_max = 0;
  params.delivery_retry_jitter = 0.0;
  return params;
}

struct NetLayers {
  LayerClock loop;      // EventLoop::RunOnce self (reads, parsing, acks, flushes on ack)
  LayerClock decode;    // DecodeSampleBatch
  LayerClock agg_add;   // Aggregator::AddSample
  LayerClock ack;       // BuildBatchAckPayload + NetServer::SendToPeer
  LayerClock offer;     // Agent::OfferSample
  LayerClock flush;     // AgentTransport::Flush (Agent::FlushOutbox + sends)
  LayerClock generate;  // the benchmark's sample generator
  LayerClock pump;      // the benchmark's closed-loop offer loop, self
  int64_t batch_bytes = 0;
};

// One set-up deployment: server, aggregator and connected agents.
class Ingest {
 public:
  Ingest(const NetConfig& config, std::vector<Generator>& generators,
         const std::string& checkpoint, bool traced, Result* result)
      : config_(config),
        generators_(generators),
        aggregator_(AggregatorParams()),
        traced_(traced),
        origin_ns_(NowNs()) {
    const int64_t restore_start = NowNs();
    const cpi2::Status restored = aggregator_.Restore(checkpoint);
    restore_ns_ = NowNs() - restore_start;
    result->Check(restored.ok(), "aggregator restore from the benchmark's checkpoint failed");

    NetServer::Options server_options;
    server_options.listen_address = "127.0.0.1:0";
    server_options.heartbeat_timeout = 120 * kMicrosPerSecond;
    server_ = std::make_unique<NetServer>(&loop_, server_options);
    server_->set_frame_handler(
        [this](const NetServer::PeerInfo& peer, std::string_view payload) {
          const int64_t begin = NowNs();
          OnFrame(peer, payload);
          cpi2_ns_ += NowNs() - begin;
        });
    started_ = server_->Start().ok();
    result->Check(started_, "loopback listen failed");
    if (!started_) {
      return;
    }
    for (int a = 0; a < config_.agents; ++a) {
      Lane lane;
      Agent::Options agent_options;
      agent_options.params = AgentParams(config_, generators_[a].tasks());
      agent_options.machine_name = generators_[a].machine();
      agent_options.platforminfo = generators_[a].platform();
      lane.agent = std::make_unique<Agent>(agent_options, nullptr, nullptr);
      NetClient::Options client_options;
      client_options.server_address = StrFormat("127.0.0.1:%d", server_->bound_port());
      client_options.peer_name = generators_[a].machine();
      client_options.heartbeat_interval = 60 * kMicrosPerSecond;
      client_options.heartbeat_timeout = 120 * kMicrosPerSecond;
      client_options.jitter_seed = 0x5eed5 + static_cast<uint64_t>(a);
      lane.client = std::make_unique<NetClient>(&loop_, client_options);
      AgentTransport::Options transport_options;
      transport_options.window = config_.window;
      lane.transport = std::make_unique<AgentTransport>(&loop_, lane.agent.get(),
                                                        lane.client.get(), transport_options);
      lanes_.push_back(std::move(lane));
    }
    for (Lane& lane : lanes_) {
      lane.client->Start();
      lane.transport->Start();
    }
    ready_ = RunUntil([this] {
      return std::all_of(lanes_.begin(), lanes_.end(),
                         [](const Lane& lane) { return lane.client->ready(); });
    });
    result->Check(ready_, "agents did not complete the handshake");
  }

  ~Ingest() {
    for (Lane& lane : lanes_) {
      lane.transport->Stop();
      lane.client->Shutdown();
    }
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  bool ready() const { return started_ && ready_; }
  // Sensitivity check: host time to spin in the frame handler per batch.
  void set_inject_us_per_batch(double us) { inject_us_per_batch_ = us; }
  int64_t restore_ns() const { return restore_ns_; }
  Aggregator& aggregator() { return aggregator_; }
  const NetLayers& layers() const { return layers_; }
  int64_t batches_ingested() const { return batches_ingested_; }
  int64_t samples_accepted() const { return samples_accepted_; }
  int64_t samples_offered() const { return samples_offered_; }
  int64_t minutes_offered(size_t a) const { return lanes_[a].minute; }
  // Host time in the CPI2 pipeline's own calls: the frame handler, and the
  // agents' offers and flushes.
  int64_t cpi2_ns() const { return cpi2_ns_; }

  // Pumps the closed loop until `stop()` says so (checked between loop
  // turns), offering at most `max_minutes` machine-minutes per agent, then
  // drains. Calls `on_window` each time another window of batches is
  // ingested.
  bool Pump(int64_t max_minutes, const std::function<bool()>& stop,
            const std::function<void()>& on_window) {
    int64_t next_window = batches_ingested_ + config_.minutes_per_window;
    bool offering = true;
    while (true) {
      if (offering && stop()) {
        offering = false;
      }
      bool pending = false;
      const int64_t pump_start = traced_ ? NowNs() : 0;
      const int64_t children_before = layers_.generate.ns + layers_.offer.ns + layers_.flush.ns;
      for (size_t a = 0; a < lanes_.size(); ++a) {
        Lane& lane = lanes_[a];
        const size_t high_water = static_cast<size_t>(2 * config_.window * generators_[a].tasks());
        while (offering && lane.minute < max_minutes && lane.agent->outbox_size() < high_water) {
          const int64_t begin = NowNs();
          OfferMinute(a);
          cpi2_ns_ += NowNs() - begin;
        }
        pending = pending || lane.agent->health().samples_delivered < lane.offered;
      }
      if (traced_) {
        layers_.pump.ns += NowNs() - pump_start -
                           (layers_.generate.ns + layers_.offer.ns + layers_.flush.ns -
                            children_before);
        ++layers_.pump.calls;
      }
      if (!offering && !pending) {
        return true;
      }
      if (offering && std::all_of(lanes_.begin(), lanes_.end(), [&](const Lane& lane) {
            return lane.minute >= max_minutes;
          })) {
        offering = false;
      }
      if (traced_) {
        // The frame handler's timed calls are the loop turn's children;
        // frame parsing and the handler's bookkeeping stay with the loop.
        const int64_t handled_before = layers_.decode.ns + layers_.agg_add.ns + layers_.ack.ns;
        const int64_t loop_start = NowNs();
        loop_.RunOnce(kMicrosPerSecond / 1000);
        layers_.loop.ns += NowNs() - loop_start -
                           (layers_.decode.ns + layers_.agg_add.ns + layers_.ack.ns -
                            handled_before);
        ++layers_.loop.calls;
      } else {
        loop_.RunOnce(kMicrosPerSecond / 1000);
      }
      while (batches_ingested_ >= next_window) {
        on_window();
        next_window += config_.minutes_per_window;
      }
      if (!lanes_.front().client->ready()) {
        return false;  // a loopback connection dropped: not expected here
      }
    }
  }

  void CheckDrained(Result* result) {
    for (size_t a = 0; a < lanes_.size(); ++a) {
      const Lane& lane = lanes_[a];
      const AgentTransport::Stats& s = lane.transport->stats();
      result->Check(!lane.transport->in_flight() &&
                        s.batches_sent == s.batches_acked + s.implied_acks + s.inflight_reset,
                    StrFormat("%s: transport identity sent %lld != acked %lld + implied %lld + "
                              "reset %lld",
                              generators_[a].machine().c_str(),
                              static_cast<long long>(s.batches_sent),
                              static_cast<long long>(s.batches_acked),
                              static_cast<long long>(s.implied_acks),
                              static_cast<long long>(s.inflight_reset)));
      result->Check(lane.agent->health().samples_delivered == lane.offered &&
                        lane.agent->health().samples_lost == 0,
                    generators_[a].machine() + ": offered samples were not all delivered");
    }
    result->Check(samples_accepted_ == samples_offered_ && aggregator_.duplicates_dropped() == 0,
                  StrFormat("accepted %lld of %lld offered samples (%lld duplicates)",
                            static_cast<long long>(samples_accepted_),
                            static_cast<long long>(samples_offered_),
                            static_cast<long long>(aggregator_.duplicates_dropped())));
  }

  // Client-side wire accounting summed over agents.
  void WireTotals(int64_t* frames, int64_t* bytes, AgentTransport::Stats* transport) const {
    *frames = 0;
    *bytes = 0;
    *transport = AgentTransport::Stats{};
    for (const Lane& lane : lanes_) {
      const cpi2::Connection::Stats c = lane.client->connection_stats();
      *frames += c.frames_sent;
      *bytes += c.bytes_sent;
      const AgentTransport::Stats& s = lane.transport->stats();
      transport->batches_sent += s.batches_sent;
      transport->window_stalls += s.window_stalls;
      transport->send_backpressure += s.send_backpressure;
      transport->window_depth_peak = std::max(transport->window_depth_peak, s.window_depth_peak);
    }
  }

 private:
  struct Lane {
    std::unique_ptr<Agent> agent;
    std::unique_ptr<NetClient> client;
    std::unique_ptr<AgentTransport> transport;
    int64_t minute = 0;
    int64_t offered = 0;
  };

  bool RunUntil(const std::function<bool()>& done) {
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (!done()) {
      if (NowNs() > deadline) {
        return false;
      }
      loop_.RunOnce(2 * kMicrosPerSecond / 1000);
    }
    return true;
  }

  void OfferMinute(size_t a) {
    Lane& lane = lanes_[a];
    Generator& generator = generators_[a];
    for (int t = 0; t < generator.tasks(); ++t) {
      if (traced_) {
        const CpiSample* sample = nullptr;
        Time(layers_.generate, [&] { sample = &generator.Make(lane.minute, t, kDay); });
        Time(layers_.offer, [&] { lane.agent->OfferSample(*sample); });
      } else {
        lane.agent->OfferSample(generator.Make(lane.minute, t, kDay));
      }
    }
    lane.offered += generator.tasks();
    samples_offered_ += generator.tasks();
    ++lane.minute;
    if (traced_) {
      Time(layers_.flush, [&] { lane.transport->Flush(); });
    } else {
      lane.transport->Flush();
    }
  }

  template <typename F>
  void Time(LayerClock& layer, F&& body) {
    const int64_t start = NowNs();
    body();
    layer.ns += NowNs() - start;
    ++layer.calls;
  }

  void OnFrame(const NetServer::PeerInfo& peer, std::string_view payload) {
    cpi2::FrameType type;
    uint64_t seq = 0;
    uint64_t consumed = 0;
    std::string_view raw;
    if (!cpi2::ParseFrameType(payload, &type) || type != cpi2::FrameType::kSampleBatch ||
        !cpi2::ParseSampleBatchPayload(payload, &seq, &consumed, &raw)) {
      return;
    }
    cpi2::BatchAckFrame ack;
    ack.seq = seq;
    bool decoded = false;
    if (traced_) {
      Time(layers_.decode, [&] { decoded = cpi2::DecodeSampleBatch(raw, &scratch_).ok(); });
      layers_.batch_bytes += static_cast<int64_t>(raw.size());
    } else {
      decoded = cpi2::DecodeSampleBatch(raw, &scratch_).ok();
    }
    if (decoded) {
      for (size_t i = consumed; i < scratch_.size(); ++i) {
        const int64_t duplicates = aggregator_.duplicates_dropped();
        if (traced_) {
          Time(layers_.agg_add, [&] { aggregator_.AddSample(scratch_[i]); });
        } else {
          aggregator_.AddSample(scratch_[i]);
        }
        if (aggregator_.duplicates_dropped() == duplicates) {
          ++samples_accepted_;
        }
        ++ack.delivered;
      }
      // The service flushes its staged ingest on every batch, on its own
      // wall clock (no build falls due within a run).
      const MicroTime now = kDay + (NowNs() - origin_ns_) / 1000;
      if (traced_) {
        Time(layers_.agg_add, [&] { aggregator_.Tick(now); });
      } else {
        aggregator_.Tick(now);
      }
      ++batches_ingested_;
    } else {
      ack.decode_failed = true;
    }
    BusyWaitUs(inject_us_per_batch_);
    if (traced_) {
      Time(layers_.ack, [&] {
        reply_.clear();
        cpi2::BuildBatchAckPayload(ack, &reply_);
        server_->SendToPeer(peer.id, reply_);
      });
    } else {
      reply_.clear();
      cpi2::BuildBatchAckPayload(ack, &reply_);
      server_->SendToPeer(peer.id, reply_);
    }
  }

  const NetConfig& config_;
  std::vector<Generator>& generators_;
  EventLoop loop_;
  Aggregator aggregator_;
  std::unique_ptr<NetServer> server_;
  std::vector<Lane> lanes_;
  std::vector<CpiSample> scratch_;
  std::string reply_;
  double inject_us_per_batch_ = 0.0;
  bool traced_;
  int64_t origin_ns_;
  bool started_ = false;
  bool ready_ = false;
  int64_t restore_ns_ = 0;
  int64_t cpi2_ns_ = 0;
  int64_t batches_ingested_ = 0;
  int64_t samples_accepted_ = 0;
  int64_t samples_offered_ = 0;
  NetLayers layers_;
};

// The checkpoint the aggregator restores from: "yesterday's" samples of
// every task of the cell, the agents' own and the rest, built once.
// `reference` gets the same history.
std::string MakeCheckpoint(const NetConfig& config, std::vector<Generator>& generators,
                           const std::vector<StreamTask>& cell, uint64_t seed,
                           ReferenceSpecs* reference) {
  Aggregator aggregator(AggregatorParams());
  for (Generator& generator : generators) {
    for (int t = 0; t < generator.tasks(); ++t) {
      Moments moments;
      for (int m = 0; m < config.history_minutes; ++m) {
        const CpiSample& sample = generator.Make(m, t, 0);
        aggregator.AddSample(sample);
        moments.Add(sample.cpi, sample.cpu_usage);
      }
      reference->AddTask(generator.job_name(t), generator.platform(), generator.task_name(t),
                         moments);
    }
  }
  cpi2::Rng rng(seed ^ 0xce11);
  CpiSample sample;
  for (const StreamTask& task : cell) {
    sample.jobname = task.job;
    sample.task = task.task;
    sample.machine = task.machine;
    sample.platforminfo = task.platform;
    const MicroTime offset = static_cast<MicroTime>(rng.Uniform(0.0, 50.0) * kMicrosPerSecond);
    Moments moments;
    for (int m = 0; m < config.history_minutes; ++m) {
      sample.timestamp = m * kMicrosPerMinute + offset;
      sample.cpi = task.cpi * Noise(rng, task.cpi_cv);
      sample.cpu_usage = task.usage * Noise(rng, task.usage_cv);
      aggregator.AddSample(sample);
      moments.Add(sample.cpi, sample.cpu_usage);
    }
    reference->AddTask(task.job, task.platform, task.task, moments);
  }
  aggregator.ForceBuild(kDay - kMicrosPerMinute);
  (void)reference->Build();
  return aggregator.Checkpoint();
}

// Every offered sample must show up in the aggregator's next build: per job
// the sample count, CPI sum (mean x count) and spread of the reference. The
// offered samples are replayed from the generators, which are
// deterministic, after the run.
std::vector<CpiSpec> CheckAggregate(Ingest& ingest, std::vector<Generator>& generators,
                                    ReferenceSpecs reference, Result* result) {
  for (size_t a = 0; a < generators.size(); ++a) {
    Generator& generator = generators[a];
    for (int t = 0; t < generator.tasks(); ++t) {
      Moments moments;
      for (int64_t m = 0; m < ingest.minutes_offered(a); ++m) {
        const CpiSample& sample = generator.Make(m, t, kDay);
        moments.Add(sample.cpi, sample.cpu_usage);
      }
      reference.AddTask(generator.job_name(t), generator.platform(), generator.task_name(t),
                        moments);
    }
  }
  const auto want = reference.Build();
  const std::vector<CpiSpec> got = ingest.aggregator().ForceBuild(2 * kDay);
  result->Check(!want.empty(), "the offered samples make no spec eligible");
  result->Check(got.size() == want.size(),
                StrFormat("aggregator built %zu specs, reference %zu", got.size(), want.size()));
  for (const CpiSpec& spec : got) {
    const auto it = want.find({spec.jobname, spec.platforminfo});
    const bool ok = it != want.end() &&
                    SameTruncatedCount(spec.num_samples, it->second.num_samples, 1e-9) &&
                    Near(spec.cpi_mean * static_cast<double>(spec.num_samples),
                         it->second.cpi_mean * static_cast<double>(spec.num_samples), 1e-9) &&
                    Near(spec.cpi_stddev, it->second.cpi_stddev, 1e-9);
    result->Check(ok, StrFormat("job %s: aggregator count/CPI sum differ from the generator's",
                                spec.jobname.c_str()));
  }
  return got;
}

}  // namespace

Result RunNetIngest(const RunOptions& options) {
  Result result;
  const NetConfig config = MakeNetConfig(options);
  const Population population = MakePopulation(config);
  std::vector<Generator> generators;
  for (int a = 0; a < config.agents; ++a) {
    const std::vector<StreamTask>& tasks = population.agents[static_cast<size_t>(a)];
    if (!result.Check(!tasks.empty(), StrFormat("agent %d's fleet machine runs no task", a))) {
      return result;
    }
    generators.emplace_back(tasks, options.seed, a);
  }
  const cpi2::Cpi2Params params = AggregatorParams();
  ReferenceSpecs history(params.history_weight, params.min_tasks_for_spec,
                         params.min_samples_per_task);
  const std::string checkpoint =
      MakeCheckpoint(config, generators, population.cell, options.seed, &history);

  if (!options.trace) {
    // Each set-up and each window runs pinned to one CPU, the next in turn,
    // and is followed by one run of the reference kernel; see HostSpeed.
    CpuRotation rotation;
    HostSpeed speed;
    std::vector<double> setups;
    std::vector<double> restores;
    std::unique_ptr<Ingest> ingest;
    for (int i = 0; i < config.setups; ++i) {
      ingest.reset();
      rotation.Next();
      const int64_t start = NowNs();
      ingest = std::make_unique<Ingest>(config, generators, checkpoint, false, &result);
      setups.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      restores.push_back(static_cast<double>(ingest->restore_ns()) * 1e-6);
      speed.Mark();
      if (!ingest->ready()) {
        return result;
      }
    }
    // One batch is one machine-minute; the busy-wait is given at the
    // reference speed.
    ingest->set_inject_us_per_batch(options.inject_us_per_machine_minute / speed.Factor());
    std::vector<double> window_s;
    std::vector<double> cpi2_share;  // of each window's host time
    rotation.Next();
    const int64_t start = NowNs();
    int64_t window_start = start;
    int64_t window_cpi2_start = ingest->cpi2_ns();
    const bool drained = ingest->Pump(
        int64_t{1} << 40,
        [&] { return static_cast<double>(NowNs() - start) * 1e-9 >= options.seconds; },
        [&] {
          const int64_t host_ns = NowNs() - window_start;
          window_s.push_back(static_cast<double>(host_ns) * 1e-9);
          cpi2_share.push_back(static_cast<double>(ingest->cpi2_ns() - window_cpi2_start) /
                               static_cast<double>(host_ns));
          speed.Mark();
          rotation.Next();
          window_start = NowNs();
          window_cpi2_start = ingest->cpi2_ns();
        });
    result.Check(drained, "the ingest loop did not drain");
    result.Check(window_s.size() >= 4, "fewer than four equal-work windows measured");
    ingest->CheckDrained(&result);
    CheckAggregate(*ingest, generators, history, &result);
    result.attempted = ingest->samples_offered();

    // A machine-minute's host time: the lower quartile over the run's
    // windows, at the reference speed. The CPI2 pipeline's part of it: the
    // median over windows of its share of each window's host time, as on
    // the simulated workloads. samples_per_s is machine_minutes_per_s times
    // the samples per machine-minute, which the population fixes.
    const double factor = speed.Factor();
    const double s_per_minute = Quantile(window_s, 0.25) * factor / config.minutes_per_window;
    const double samples_per_minute = static_cast<double>(ingest->samples_accepted()) /
                                      static_cast<double>(ingest->batches_ingested());
    Note("windows", static_cast<double>(window_s.size()));
    Note("machine-minutes ingested", static_cast<double>(ingest->batches_ingested()));
    Note("window host seconds (median, raw)", Median(window_s), "s");
    Note("reference kernel seconds (median)", Median(speed.kernel_seconds()), "s");
    Note("restore ms (median, raw)", Median(restores), "ms");
    Note("samples per machine-minute", samples_per_minute);
    int64_t frames = 0;
    int64_t bytes = 0;
    AgentTransport::Stats transport;
    ingest->WireTotals(&frames, &bytes, &transport);
    Note("wire bytes per sample",
         static_cast<double>(bytes) / static_cast<double>(ingest->samples_accepted()), "B");

    result.Add("setup_s", Median(setups) * factor, "s");
    result.Add("machine_minutes_per_s", 1.0 / s_per_minute, "1/s");
    result.Add("cpi2_us_per_machine_minute", 1e6 * s_per_minute * Median(cpi2_share), "us");
    result.Add("samples_per_s", samples_per_minute / s_per_minute, "1/s");
    result.Add("peak_rss_mib", PeakRssMib(), "MiB");
    return result;
  }

  // Traced: the same fixed work untraced, then traced, compared.
  const int64_t minutes_per_agent = config.trace_minutes / config.agents;
  double untraced_s = 0.0;
  int64_t untraced_batches = 0;
  int64_t untraced_accepted = 0;
  std::vector<CpiSpec> untraced_specs;
  {
    Ingest ingest(config, generators, checkpoint, false, &result);
    if (!ingest.ready()) {
      return result;
    }
    const int64_t start = NowNs();
    result.Check(ingest.Pump(minutes_per_agent, [] { return false; }, [] {}),
                 "the untraced ingest loop did not drain");
    untraced_s = static_cast<double>(NowNs() - start) * 1e-9;
    ingest.CheckDrained(&result);
    untraced_batches = ingest.batches_ingested();
    untraced_accepted = ingest.samples_accepted();
    untraced_specs = CheckAggregate(ingest, generators, history, &result);
  }
  Ingest ingest(config, generators, checkpoint, true, &result);
  if (!ingest.ready()) {
    return result;
  }
  const int64_t start = NowNs();
  result.Check(ingest.Pump(minutes_per_agent, [] { return false; }, [] {}),
               "the traced ingest loop did not drain");
  const int64_t total_ns = NowNs() - start;
  ingest.CheckDrained(&result);
  result.attempted = ingest.samples_offered();
  result.Check(ingest.batches_ingested() == untraced_batches &&
                   ingest.samples_accepted() == untraced_accepted,
               "traced run ingested different batches or samples than the untraced run");
  const int64_t restore_ns = ingest.restore_ns();
  const std::vector<CpiSpec> traced_specs = CheckAggregate(ingest, generators, history, &result);
  bool same_specs = traced_specs.size() == untraced_specs.size();
  for (size_t i = 0; same_specs && i < traced_specs.size(); ++i) {
    same_specs = traced_specs[i].jobname == untraced_specs[i].jobname &&
                 traced_specs[i].num_samples == untraced_specs[i].num_samples &&
                 traced_specs[i].cpi_mean == untraced_specs[i].cpi_mean &&
                 traced_specs[i].cpi_stddev == untraced_specs[i].cpi_stddev;
  }
  result.Check(same_specs, "traced run built different specs");

  const NetLayers& l = ingest.layers();
  LayerBreakdown breakdown;
  breakdown.total_ns = total_ns;
  breakdown.self_ns = {{"net.loop (RunOnce self)", l.loop.ns},
                       {"wire.decode", l.decode.ns},
                       {"core.aggregator.add", l.agg_add.ns},
                       {"net.ack (build + send)", l.ack.ns},
                       {"core.agent.offer", l.offer.ns},
                       {"net.transport.flush", l.flush.ns},
                       {"bench.generator", l.generate.ns},
                       {"bench.pump", l.pump.ns}};
  const double gap = breakdown.PrintAndGap("net_ingest");
  result.Check(gap <= 0.05, StrFormat("layer self times miss the total by %.1f%%", 100 * gap));
  const double overhead = static_cast<double>(total_ns) * 1e-9 / untraced_s - 1.0;
  Note("tracing overhead (traced/untraced - 1)", overhead);

  int64_t frames = 0;
  int64_t bytes = 0;
  AgentTransport::Stats transport;
  ingest.WireTotals(&frames, &bytes, &transport);
  const double batches = static_cast<double>(ingest.batches_ingested());
  const double samples = static_cast<double>(ingest.samples_accepted());
  auto per = [](const LayerClock& layer, double units, double scale) {
    return units > 0.0 ? static_cast<double>(layer.ns) * scale / units : 0.0;
  };
  result.Add("sim.tick_us", 0.0, "us");
  result.Add("perf.counter_reads", 0.0, "count");
  result.Add("perf.counter_read_us", 0.0, "us");
  result.Add("cgroup.controller_calls", 0.0, "count");
  result.Add("core.agent.tick_us", 0.0, "us");
  result.Add("core.agent.samples", static_cast<double>(ingest.samples_offered()), "count");
  result.Add("core.agent.outliers", 0.0, "count");
  result.Add("core.agent.anomalies", 0.0, "count");
  result.Add("core.agent.incidents", 0.0, "count");
  result.Add("core.agent.flush_us", per(l.flush, static_cast<double>(transport.batches_sent), 1e-3),
             "us");
  result.Add("core.identifier.analyze_us", 0.0, "us");
  result.Add("core.identifier.suspects_per_analysis", 0.0, "count");
  result.Add("core.enforcement.caps", 0.0, "count");
  result.Add("wire.decode_us", per(l.decode, batches, 1e-3), "us");
  result.Add("wire.batch_bytes", static_cast<double>(l.batch_bytes) / batches, "B");
  result.Add("wire.bytes_per_sample", static_cast<double>(bytes) / samples, "B");
  result.Add("core.aggregator.add_us", per(l.agg_add, samples, 1e-3), "us");
  result.Add("core.aggregator.build_ms", 0.0, "ms");
  result.Add("core.aggregator.restore_ms", static_cast<double>(restore_ns) * 1e-6, "ms");
  result.Add("core.aggregator.spec_deliver_us", 0.0, "us");
  result.Add("core.incident_log.add_us", 0.0, "us");
  result.Add("core.incident_log.select_us", 0.0, "us");
  result.Add("core.incident_log.top_antagonists_us", 0.0, "us");
  result.Add("core.incident_log.queries_per_s", 0.0, "1/s");
  result.Add("loop.onset_to_cap_s", 0.0, "sim_s");
  result.Add("loop.onset_to_cap_p90_s", 0.0, "sim_s");
  result.Add("loop.cap_to_recovery_s", 0.0, "sim_s");
  result.Add("loop.victim_relative_cpi", 0.0, "ratio");
  result.Add("net.loop_us", per(l.loop, batches, 1e-3), "us");
  result.Add("net.frames_sent", static_cast<double>(frames), "count");
  result.Add("net.bytes_sent", static_cast<double>(bytes), "count");
  result.Add("net.transport.window_stalls", static_cast<double>(transport.window_stalls), "count");
  result.Add("net.transport.send_backpressure", static_cast<double>(transport.send_backpressure),
             "count");
  result.Add("net.transport.window_depth_peak", static_cast<double>(transport.window_depth_peak),
             "count");
  result.Add("trace.overhead", overhead, "ratio");
  result.Add("trace.unattributed", gap, "ratio");
  return result;
}

}  // namespace perfbench
