// fleet_steady and antagonist_storm.
//
// Both run the CPI2 deployment on the cluster simulator with a serial tick.
// The end-to-end run drives ClusterHarness (the deployment as the program
// wires it). The traced run drives the benchmark's own tick loop over the
// same public classes the harness wires on its fault-free flat path —
// Cluster/Machine, Agent, Aggregator, IncidentLog — timing every call into
// a layer, and must reproduce the harness run's samples, incidents and
// specs exactly.
//
// Work is cut into equal chunks of simulated time. fleet_steady's chunk is
// one simulated hour, which ends on the hourly spec rebuild, so every chunk
// holds one build and its push-back. antagonist_storm's chunk is one round:
// a cache thrasher lands on every machine, stays antagonist_span, and is
// removed; the rest of the round is quiet.

#include "sim_workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cpi2.h"
#include "forensics.h"
#include "harness/cluster_harness.h"
#include "reference.h"
#include "sim/cluster.h"
#include "sim/platform.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/cluster_builder.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

using cpi2::Agent;
using cpi2::Aggregator;
using cpi2::Cluster;
using cpi2::ClusterHarness;
using cpi2::CpiSample;
using cpi2::CpiSpec;
using cpi2::Incident;
using cpi2::IncidentAction;
using cpi2::IncidentLog;
using cpi2::Machine;
using cpi2::MicroTime;
using cpi2::StrFormat;
using cpi2::TaskSpec;
using cpi2::kMicrosPerMinute;
using cpi2::kMicrosPerSecond;

// --- configuration -----------------------------------------------------------

struct SimConfig {
  bool storm = false;
  int machines = 0;
  // fleet_steady: mean tasks per machine of the Figure 1 mix.
  double mean_tasks_per_machine = 20.0;
  // antagonist_storm: per-machine population.
  int victims_per_machine = 0;
  int tenants_per_machine = 0;
  double tenant_cpu_budget = 5.0;
  MicroTime prime = 0;             // antagonist-free warm-up before specs are built
  MicroTime chunk = 0;             // simulated time per equal-work chunk
  MicroTime antagonist_span = 0;   // storm: thrasher present for this long per round
  int min_chunks = 0;              // every run completes at least this many chunks
  int setups = 1;                  // set-ups per end-to-end run (median reported)
  cpi2::Cpi2Params params;
  Cluster::Options cluster;
};

SimConfig MakeConfig(bool storm, const RunOptions& options) {
  const bool smoke = options.size == Size::kSmoke;
  SimConfig c;
  c.storm = storm;
  c.cluster.threads = 1;  // serial tick: parallel speedups do not repeat on a shared host
  c.cluster.seed = options.seed;
  // The paper's Table 2 parameters, except the per-task sample floor: at one
  // sample per task per minute an hourly build window holds 60 samples per
  // task, so the paper's 100 (meant for daily builds) would never let a spec
  // through. Every experiment in bench/ lowers it the same way.
  c.params.min_tasks_for_spec = 5;
  c.params.min_samples_per_task = 5;
  c.setups = smoke ? 1 : 5;
  if (!storm) {
    c.machines = smoke ? 8 : 24;
    c.params.spec_update_interval = cpi2::kMicrosPerHour;  // the paper's one-hour goal
    c.prime = 12 * kMicrosPerMinute;
    c.chunk = cpi2::kMicrosPerHour;
    c.min_chunks = smoke ? 2 : 6;
  } else {
    c.machines = smoke ? 6 : 24;
    c.victims_per_machine = smoke ? 2 : 4;
    c.tenants_per_machine = smoke ? 24 : 100;
    c.prime = 15 * kMicrosPerMinute;
    c.chunk = 15 * kMicrosPerMinute;
    c.antagonist_span = 10 * kMicrosPerMinute;
    // >= 100 injections, so onset -> cap has a 90th percentile.
    c.min_chunks = smoke ? 2 : (100 + c.machines - 1) / c.machines;
    // Antagonists stay where they land: the scheduler's starvation
    // preemption would otherwise move a thrasher mid-round.
    c.cluster.scheduler.preemption_satisfaction = 0.0;
  }
  return c;
}

// The case-study co-tenant gallery: latency-sensitive services and batch
// fillers, lightly randomized. Tenant k on every machine belongs to job
// k of the gallery, so every job has a task per machine and a spec.
TaskSpec GalleryTenant(int index, cpi2::Rng& rng) {
  TaskSpec spec;
  switch (index % 6) {
    case 0:
      spec = cpi2::ContentDigitizingSpec();
      break;
    case 1:
      spec = cpi2::ImageFrontendSpec();
      break;
    case 2:
      spec = cpi2::BigtableTabletSpec();
      break;
    case 3:
      spec = cpi2::StorageServerSpec();
      break;
    case 4:
      spec = cpi2::FillerServiceSpec(rng.Uniform(0.1, 0.5));
      break;
    default:
      spec = cpi2::FillerBatchSpec(rng.Uniform(0.1, 0.4));
      break;
  }
  spec.job_name = StrFormat("%s-%02d", spec.job_name.c_str(), index / 6);
  spec.base_cpu_demand *= rng.Uniform(0.5, 1.3);
  return spec;
}

constexpr uint64_t kFleetMixSeed = 1;
constexpr uint64_t kStormPopulationSeed = 17;

std::string VictimJob(int v) { return StrFormat("victim-websearch-leaf-%d", v); }

void Populate(Cluster& cluster, const SimConfig& config) {
  if (!config.storm) {
    cpi2::ClusterMixOptions mix;
    mix.machines = config.machines;
    mix.mean_tasks_per_machine = config.mean_tasks_per_machine;
    // One fixed draw of the mix: job sizes are heavy-tailed, so a per-seed
    // mix would change the amount of work several-fold from seed to seed.
    // The seed reseeds placement and every machine's random streams.
    mix.seed = kFleetMixSeed;
    (void)cpi2::BuildRepresentativeCluster(&cluster, mix);
    return;
  }
  cluster.AddMachines(cpi2::ReferencePlatform(), config.machines);
  cluster.BuildScheduler();
  // One fixed draw of the tenant population, for the same reason as the
  // fleet's fixed mix; the seed draws the thrashers and every machine's
  // random streams.
  cpi2::Rng rng(kStormPopulationSeed);
  for (int m = 0; m < config.machines; ++m) {
    Machine* machine = cluster.machine(static_cast<size_t>(m));
    for (int v = 0; v < config.victims_per_machine; ++v) {
      TaskSpec victim = cpi2::WebSearchLeafSpec();
      victim.job_name = VictimJob(v);
      victim.base_cpi = 1.3 + 0.2 * v;
      (void)machine->AddTask(StrFormat("%s.m%03d", victim.job_name.c_str(), m), victim);
    }
    std::vector<TaskSpec> tenants;
    double demand = 0.0;
    for (int i = 0; i < config.tenants_per_machine; ++i) {
      tenants.push_back(GalleryTenant(i, rng));
      demand += tenants.back().base_cpu_demand;
    }
    const double scale = demand > 0.0 ? config.tenant_cpu_budget / demand : 1.0;
    for (TaskSpec& tenant : tenants) {
      tenant.base_cpu_demand *= scale;
      tenant.cpu_request *= scale;
      (void)machine->AddTask(StrFormat("%s.m%03d", tenant.job_name.c_str(), m), tenant);
    }
  }
}

// --- sample taps -------------------------------------------------------------

// What the benchmark records from Agent::SetSampleCallback. The tap runs
// inside the timed window, so it only appends: the numbers to a slot, the
// names to one character arena, both sized ahead (no allocation, no
// lookup). Fold() turns the slots into what the checks need after the
// chunk: per-task moments for fleet_steady's reference specs, and per-task
// CPI series of the round for antagonist_storm.
class Taps {
 public:
  explicit Taps(bool storm) : storm_(storm) {}

  void Record(uint32_t machine, const CpiSample& sample) {
    Slot slot;
    slot.machine = machine;
    slot.task_at = static_cast<uint32_t>(names_.size());
    slot.task_chars = static_cast<uint32_t>(sample.task.size());
    names_.append(sample.task);
    if (!storm_) {  // the storm's checks need no job
      slot.job_chars = static_cast<uint32_t>(sample.jobname.size());
      names_.append(sample.jobname);
    }
    slot.timestamp = sample.timestamp;
    slot.cpi = sample.cpi;
    slot.usage = sample.cpu_usage;
    slots_.push_back(slot);
    ++samples_;
  }

  // Outside the timed window: sizes the slots and the arena for a chunk
  // `scale` times as long as what was recorded since the last Fold().
  void Reserve(double scale) {
    const double margin = 1.25 * scale;
    slots_.reserve(static_cast<size_t>(static_cast<double>(slots_.size()) * margin) + 64);
    names_.reserve(static_cast<size_t>(static_cast<double>(names_.size()) * margin) + 4096);
  }

  // Moves the recorded samples into moments (fleet_steady) or series
  // (antagonist_storm). `platforms` names each machine's platform.
  void Fold(const std::vector<std::string>& platforms) {
    for (const Slot& slot : slots_) {
      std::string task(names_, slot.task_at, slot.task_chars);
      if (storm_) {
        series_[std::move(task)].emplace_back(slot.timestamp, slot.cpi);
        continue;
      }
      TaskTap& tap = moments_[std::move(task)];
      if (tap.moments.count == 0.0) {
        tap.job.assign(names_, slot.task_at + slot.task_chars, slot.job_chars);
        tap.platform = platforms[slot.machine];
      }
      tap.moments.Add(slot.cpi, slot.usage);
    }
    slots_.clear();  // both keep their capacity
    names_.clear();
  }

  // Forgets everything recorded; keeps the capacity.
  void Reset() {
    slots_.clear();
    names_.clear();
    samples_ = 0;
    moments_.clear();
    series_.clear();
  }

  int64_t samples() const { return samples_; }
  TaskTaps& moments() { return moments_; }
  const std::vector<std::pair<MicroTime, double>>* Series(const std::string& task) const {
    const auto it = series_.find(task);
    return it != series_.end() ? &it->second : nullptr;
  }
  void ClearRound() {
    for (auto& [task, points] : series_) {
      points.clear();
    }
  }

 private:
  struct Slot {
    uint32_t machine = 0;
    uint32_t task_at = 0;  // the task's name, then the job's, in names_
    uint32_t task_chars = 0;
    uint32_t job_chars = 0;
    MicroTime timestamp = 0;
    double cpi = 0.0;
    double usage = 0.0;
  };

  bool storm_;
  std::vector<Slot> slots_;
  std::string names_;
  int64_t samples_ = 0;
  TaskTaps moments_;
  std::unordered_map<std::string, std::vector<std::pair<MicroTime, double>>> series_;
};

std::vector<std::string> Platforms(Cluster& cluster) {
  std::vector<std::string> platforms;
  for (Machine* machine : cluster.machines()) {
    platforms.push_back(machine->platform().name);
  }
  return platforms;
}

// --- deployments ---------------------------------------------------------------

class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual Cluster& cluster() = 0;
  virtual Aggregator& aggregator() = 0;
  virtual const IncidentLog& incidents() const = 0;
  virtual const std::vector<Agent*>& agents() const = 0;
  // Samples handed to the aggregator so far.
  virtual int64_t samples_ingested() const = 0;
  // Advances the world and the deployment by one simulated second.
  virtual void Tick() = 0;
  // Antagonist-free warm-up, then a forced spec build pushed to every agent.
  virtual void Prime(MicroTime warmup) = 0;
  // Host time spent in the CPI2 deployment's per-tick work so far.
  int64_t cpi2_ns() const { return cpi2_ns_; }

 protected:
  int64_t cpi2_ns_ = 0;
};

// The program's own wiring. Two benchmark listeners bracket the harness's
// tick listener: everything between them is the deployment's per-tick cost.
class HarnessDeployment : public Deployment {
 public:
  HarnessDeployment(const SimConfig& config, Taps* taps) {
    ClusterHarness::Options options;
    options.cluster = config.cluster;
    options.params = config.params;
    harness_ = std::make_unique<ClusterHarness>(options);
    Cluster& world = harness_->cluster();
    Populate(world, config);
    world.AddTickListener([this](MicroTime) { bracket_start_ = NowNs(); });
    harness_->WireAgents();
    world.AddTickListener([this](MicroTime) {
      BusyWaitUs(inject_us_per_tick_);
      cpi2_ns_ += NowNs() - bracket_start_;
    });
    for (Machine* machine : world.machines()) {
      Agent* agent = harness_->agent(machine->name());
      const auto index = static_cast<uint32_t>(agents_.size());
      agent->SetSampleCallback(
          [taps, index](const CpiSample& sample) { taps->Record(index, sample); });
      agents_.push_back(agent);
    }
  }

  Cluster& cluster() override { return harness_->cluster(); }
  Aggregator& aggregator() override { return harness_->aggregator(); }
  const IncidentLog& incidents() const override { return harness_->incidents(); }
  const std::vector<Agent*>& agents() const override { return agents_; }
  int64_t samples_ingested() const override { return harness_->samples_collected(); }
  void Tick() override { harness_->cluster().Tick(); }
  void Prime(MicroTime warmup) override { harness_->PrimeSpecs(warmup); }
  // Sensitivity check: host time to spin inside the bracket every tick.
  void set_inject_us_per_tick(double us) { inject_us_per_tick_ = us; }

 private:
  std::unique_ptr<ClusterHarness> harness_;
  double inject_us_per_tick_ = 0.0;
  std::vector<Agent*> agents_;
  int64_t bracket_start_ = 0;
};

// Span recorder: a span runs from its own call to its body's return, and
// its self time is that minus its children's. Nothing else is booked, so
// the loop code between calls (and the recorder's own work) stays
// unattributed, and the traced run's self-time check sees how much of the
// run the spans cover.
class Tracer {
 public:
  Tracer() { open_.reserve(16); }

  template <typename F>
  void Span(LayerClock& layer, F&& body) {
    const int64_t start = NowNs();
    open_.push_back(0);
    body();
    const int64_t duration = NowNs() - start;
    const int64_t children = open_.back();
    open_.pop_back();
    layer.ns += duration - children;
    ++layer.calls;
    if (!open_.empty()) {
      open_.back() += duration;
    }
  }
  // Books `ns`, measured inside the open span, to `layer` as a child.
  void Attribute(LayerClock& layer, int64_t ns) {
    layer.ns += ns;
    ++layer.calls;
    if (!open_.empty()) {
      open_.back() += ns;
    }
  }

 private:
  std::vector<int64_t> open_;
};

struct SimLayers {
  LayerClock sim;           // Machine::Tick + Scheduler::Maintain
  LayerClock sync;          // task registry sync (Agent::AddTask/RemoveTask)
  LayerClock agent;         // Agent::Tick self
  LayerClock perf;          // CounterSource reads
  LayerClock cgroup;        // CpuController calls
  LayerClock tap;           // the benchmark's sample tap
  LayerClock identifier;    // anomaly handling: victim sample -> incident
  LayerClock flush;         // Agent::FlushOutbox self
  LayerClock decode;        // DecodeSampleBatch
  LayerClock agg_add;       // Aggregator::AddSample
  LayerClock agg_tick;      // Aggregator::Tick on ticks without a build
  LayerClock agg_build;     // Aggregator::Tick on build ticks
  LayerClock spec_deliver;  // Agent::UpdateSpec
  LayerClock log_add;       // IncidentLog::Add
  int64_t batch_bytes = 0;
  int64_t suspects = 0;

  LayerBreakdown Breakdown(int64_t total_ns) const {
    LayerBreakdown b;
    b.total_ns = total_ns;
    b.self_ns = {{"sim", sim.ns},
                 {"harness.sync", sync.ns},
                 {"core.agent (tick self)", agent.ns},
                 {"perf (counter reads)", perf.ns},
                 {"cgroup (controller)", cgroup.ns},
                 {"bench.tap", tap.ns},
                 {"core.identifier", identifier.ns},
                 {"core.agent (flush self)", flush.ns},
                 {"wire.decode", decode.ns},
                 {"core.aggregator.add", agg_add.ns},
                 {"core.aggregator.tick", agg_tick.ns},
                 {"core.aggregator.build", agg_build.ns},
                 {"core.aggregator.spec_deliver", spec_deliver.ns},
                 {"core.incident_log.add", log_add.ns}};
    return b;
  }
};

class TimedCounterSource : public cpi2::CounterSource {
 public:
  TimedCounterSource(Machine* machine, Tracer* tracer, LayerClock* layer)
      : machine_(machine), tracer_(tracer), layer_(layer) {}
  cpi2::StatusOr<cpi2::CounterSnapshot> Read(const std::string& container) override {
    cpi2::StatusOr<cpi2::CounterSnapshot> out = cpi2::NotFoundError("unread");
    tracer_->Span(*layer_, [&] { out = machine_->Read(container); });
    return out;
  }
  std::optional<uint64_t> ContainerHandle(const std::string& container) override {
    return machine_->ContainerHandle(container);
  }
  cpi2::StatusOr<cpi2::CounterSnapshot> ReadByHandle(uint64_t handle) override {
    cpi2::StatusOr<cpi2::CounterSnapshot> out = cpi2::NotFoundError("unread");
    tracer_->Span(*layer_, [&] { out = machine_->ReadByHandle(handle); });
    return out;
  }

 private:
  Machine* machine_;
  Tracer* tracer_;
  LayerClock* layer_;
};

class TimedController : public cpi2::CpuController {
 public:
  TimedController(Machine* machine, Tracer* tracer, LayerClock* layer)
      : machine_(machine), tracer_(tracer), layer_(layer) {}
  cpi2::Status SetCap(const std::string& container, double cpu_sec_per_sec) override {
    cpi2::Status out = cpi2::Status::Ok();
    tracer_->Span(*layer_, [&] { out = machine_->SetCap(container, cpu_sec_per_sec); });
    return out;
  }
  cpi2::Status RemoveCap(const std::string& container) override {
    cpi2::Status out = cpi2::Status::Ok();
    tracer_->Span(*layer_, [&] { out = machine_->RemoveCap(container); });
    return out;
  }
  std::optional<double> GetCap(const std::string& container) const override {
    std::optional<double> out;
    tracer_->Span(*layer_, [&] { out = machine_->GetCap(container); });
    return out;
  }

 private:
  Machine* machine_;
  Tracer* tracer_;
  LayerClock* layer_;
};

// The benchmark's own tick loop: ClusterHarness's fault-free flat serial
// path (Cluster::Tick, then the harness's OnTick) spelled out with spans.
class TracedDeployment : public Deployment {
 public:
  TracedDeployment(const SimConfig& config, Taps* taps)
      : tick_(config.cluster.tick),
        cluster_(config.cluster),
        aggregator_(config.params),
        log_(config.params.legacy_forensics_path),
        taps_(taps) {
    Populate(cluster_, config);
    const std::vector<Machine*>& machines = cluster_.machines();
    channels_.resize(machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
      Channel& channel = channels_[i];
      Machine* machine = machines[i];
      channel.machine = machine;
      channel.source = std::make_unique<TimedCounterSource>(machine, &tracer_, &layers_.perf);
      channel.controller =
          std::make_unique<TimedController>(machine, &tracer_, &layers_.cgroup);
      Agent::Options agent_options;
      agent_options.params = config.params;
      agent_options.machine_name = machine->name();
      agent_options.platforminfo = machine->platform().name;
      agent_options.jitter_seed =
          config.cluster.seed ^ 0xa9e27 ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
      channel.agent = std::make_unique<Agent>(agent_options, channel.source.get(),
                                              channel.controller.get());
      channel.agent->SetBatchDeliveryCallback(
          [this](const cpi2::EncodedSampleBatch& batch) { return DeliverBatch(batch); });
      channel.agent->SetIncidentCallback([this, &channel](const Incident& incident) {
        // Anomaly handling ran from the victim's sample tap to here, less
        // the controller calls it made (already booked to cgroup).
        const int64_t handled =
            NowNs() - last_tap_end_ - (layers_.cgroup.ns - cgroup_ns_at_tap_);
        tracer_.Attribute(layers_.identifier, handled);
        layers_.suspects += static_cast<int64_t>(incident.suspects.size());
        channel.incidents.push_back(incident);
      });
      const auto index = static_cast<uint32_t>(i);
      channel.agent->SetSampleCallback([this, index](const CpiSample& sample) {
        tracer_.Span(layers_.tap, [&] { taps_->Record(index, sample); });
        last_tap_end_ = NowNs();
        cgroup_ns_at_tap_ = layers_.cgroup.ns;
      });
      by_platform_[machine->platform().name].push_back(i);
      agents_.push_back(channel.agent.get());
    }
    aggregator_.SetSpecCallback([this](const CpiSpec& spec) { DeliverSpec(spec); });
  }

  Cluster& cluster() override { return cluster_; }
  Aggregator& aggregator() override { return aggregator_; }
  const IncidentLog& incidents() const override { return log_; }
  const std::vector<Agent*>& agents() const override { return agents_; }
  int64_t samples_ingested() const override { return samples_ingested_; }
  const SimLayers& layers() const { return layers_; }
  int64_t batches() const { return layers_.decode.calls; }

  void Tick() override {
    cluster_.clock().Advance(tick_);
    const MicroTime now = cluster_.now();
    // Cluster::Tick's serial path: every machine, then the scheduler.
    tracer_.Span(layers_.sim, [&] {
      for (Channel& channel : channels_) {
        channel.machine->Tick(now, tick_);
      }
      cluster_.scheduler().Maintain(now);
    });
    for (Channel& channel : channels_) {
      if (channel.synced_membership != channel.machine->membership_version()) {
        tracer_.Span(layers_.sync, [&] { Sync(channel, now); });
      }
      tracer_.Span(layers_.agent, [&] { channel.agent->Tick(now); });
    }
    for (Channel& channel : channels_) {
      tracer_.Span(layers_.flush, [&] { channel.agent->FlushOutbox(now); });
      for (const Incident& incident : channel.incidents) {
        tracer_.Span(layers_.log_add, [&] { log_.Add(incident); });
      }
      channel.incidents.clear();
    }
    LayerClock tick;
    const int64_t builds = aggregator_.builds_completed();
    tracer_.Span(tick, [&] { aggregator_.Tick(now); });
    LayerClock& into = aggregator_.builds_completed() != builds ? layers_.agg_build
                                                                 : layers_.agg_tick;
    into.ns += tick.ns;
    into.calls += tick.calls;
  }

  void Prime(MicroTime warmup) override {
    const MicroTime end = cluster_.now() + warmup;
    while (cluster_.now() < end) {
      Tick();
    }
    aggregator_.ForceBuild(cluster_.now());
  }

 private:
  struct Channel {
    Machine* machine = nullptr;
    std::unique_ptr<TimedCounterSource> source;
    std::unique_ptr<TimedController> controller;
    std::unique_ptr<Agent> agent;
    std::vector<Incident> incidents;
    std::vector<std::string> departed;
    uint64_t synced_membership = ~0ull;
  };

  // Registers arrivals and drops departures, in name order on both sides;
  // Tick() calls it when the machine's membership version moved.
  void Sync(Channel& channel, MicroTime now) {
    for (cpi2::Task* task : channel.machine->Tasks()) {
      if (!channel.agent->HasTask(task->name())) {
        channel.agent->AddTask(cpi2::MetaFromSpec(task->name(), task->spec()), now);
      }
    }
    channel.departed.clear();
    for (const auto& [name, meta] : channel.agent->Tasks()) {
      if (channel.machine->FindTask(name) == nullptr) {
        channel.departed.push_back(name);
      }
    }
    for (const std::string& name : channel.departed) {
      channel.agent->RemoveTask(name);
    }
    channel.synced_membership = channel.machine->membership_version();
  }

  cpi2::BatchDeliveryOutcome DeliverBatch(const cpi2::EncodedSampleBatch& batch) {
    cpi2::BatchDeliveryOutcome outcome;
    bool decoded = false;
    tracer_.Span(layers_.decode,
                 [&] { decoded = cpi2::DecodeSampleBatch(batch.bytes, &scratch_).ok(); });
    layers_.batch_bytes += static_cast<int64_t>(batch.bytes.size());
    if (!decoded) {
      outcome.decode_failed = true;
      return outcome;
    }
    for (size_t s = batch.consumed; s < scratch_.size(); ++s) {
      tracer_.Span(layers_.agg_add, [&] { aggregator_.AddSample(scratch_[s]); });
      ++samples_ingested_;
      ++outcome.delivered;
    }
    return outcome;
  }

  void DeliverSpec(const CpiSpec& spec) {
    const auto it = by_platform_.find(spec.platforminfo);
    if (it == by_platform_.end()) {
      return;
    }
    for (size_t i : it->second) {
      tracer_.Span(layers_.spec_deliver,
                   [&] { channels_[i].agent->UpdateSpec(spec, cluster_.now()); });
    }
  }

  MicroTime tick_;
  Cluster cluster_;
  Aggregator aggregator_;
  IncidentLog log_;
  Taps* taps_;
  Tracer tracer_;
  SimLayers layers_;
  std::vector<Channel> channels_;
  std::vector<Agent*> agents_;
  std::map<std::string, std::vector<size_t>> by_platform_;
  std::vector<CpiSample> scratch_;
  int64_t samples_ingested_ = 0;
  int64_t last_tap_end_ = 0;
  int64_t cgroup_ns_at_tap_ = 0;
};

// --- the run -------------------------------------------------------------------

// Per-chunk host accounting and the control loop's simulated-time outcomes.
struct ChunkLog {
  std::vector<double> host_s;   // host time of the chunk
  std::vector<double> cpi2_s;   // of which in the CPI2 deployment
  std::vector<double> samples;  // samples ingested
  // antagonist_storm, over the first min_chunks rounds only, so they
  // repeat exactly for a seed however fast the host is.
  std::vector<double> onset_to_cap_s;
  std::vector<double> cap_to_recovery_s;
  std::vector<double> victim_relative_cpi;
  int unrecovered = 0;
};

// Everything the traced run must reproduce.
struct Digest {
  int64_t samples = 0;
  int64_t enqueued = 0;
  int64_t delivered = 0;
  std::vector<std::string> incidents;
  std::vector<CpiSpec> specs;
};

std::string IncidentLine(const Incident& incident) {
  return StrFormat("%lld %s %s %d %s %.17g %.17g %zu %s %.17g",
                   static_cast<long long>(incident.timestamp), incident.machine.c_str(),
                   incident.victim_task.c_str(), static_cast<int>(incident.action),
                   incident.action_target.c_str(), incident.victim_cpi, incident.cpi_threshold,
                   incident.suspects.size(),
                   incident.suspects.empty() ? "-" : incident.suspects.front().task.c_str(),
                   incident.suspects.empty() ? 0.0 : incident.suspects.front().correlation);
}

Digest MakeDigest(Deployment& deployment) {
  Digest digest;
  digest.samples = deployment.samples_ingested();
  for (const Agent* agent : deployment.agents()) {
    digest.enqueued += agent->health().samples_enqueued;
    digest.delivered += agent->health().samples_delivered;
  }
  for (const Incident& incident : deployment.incidents().incidents()) {
    digest.incidents.push_back(IncidentLine(incident));
  }
  digest.specs = deployment.aggregator().builder().SnapshotLatestSpecs();
  return digest;
}

bool SameSpecs(const std::vector<CpiSpec>& a, const std::vector<CpiSpec>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].jobname != b[i].jobname || a[i].platforminfo != b[i].platforminfo ||
        a[i].num_samples != b[i].num_samples || a[i].cpi_mean != b[i].cpi_mean ||
        a[i].cpi_stddev != b[i].cpi_stddev || a[i].cpu_usage_mean != b[i].cpu_usage_mean) {
      return false;
    }
  }
  return true;
}

class SimRun {
 public:
  SimRun(const SimConfig& config, Result* result)
      : config_(config),
        result_(result),
        taps_(config.storm),
        reference_(config.params.history_weight, config.params.min_tasks_for_spec,
                   config.params.min_samples_per_task) {}

  Taps& taps() { return taps_; }

  // Checks the specs of the build that just ran against the reference, both
  // ways: the aggregator holds a spec for exactly the keys the reference
  // has one for (built this time or kept from an earlier build), and each
  // equals the reference's.
  void CheckBuild(Deployment& deployment) {
    reference_.AddTaps(taps_.moments());
    taps_.moments().clear();
    const int64_t window = reference_.window_samples();
    const std::map<ReferenceSpecs::Key, RefSpec> built = reference_.Build();
    result_->Check(!built.empty() || window == 0, "a build window with samples yields no spec");
    const std::map<ReferenceSpecs::Key, RefSpec>& want = reference_.latest();
    const std::vector<CpiSpec> got = deployment.aggregator().builder().SnapshotLatestSpecs();
    result_->Check(got.size() == want.size(),
                   StrFormat("aggregator holds %zu specs, reference %zu", got.size(),
                             want.size()));
    for (const CpiSpec& spec : got) {
      const auto it = want.find({spec.jobname, spec.platforminfo});
      const bool ok = it != want.end() &&
                      SameTruncatedCount(spec.num_samples, it->second.num_samples, 1e-9) &&
                      Near(spec.cpi_mean, it->second.cpi_mean, 1e-9) &&
                      Near(spec.cpi_stddev, it->second.cpi_stddev, 1e-9) &&
                      Near(spec.cpu_usage_mean, it->second.usage_mean, 1e-9);
      result_->Check(ok, StrFormat("spec %s/%s: aggregator n %lld mean %.9g sd %.9g, %s",
                                   spec.jobname.c_str(), spec.platforminfo.c_str(),
                                   static_cast<long long>(spec.num_samples), spec.cpi_mean,
                                   spec.cpi_stddev,
                                   it == want.end()
                                       ? "reference has none"
                                       : StrFormat("reference n %.9g mean %.9g sd %.9g",
                                                   it->second.num_samples, it->second.cpi_mean,
                                                   it->second.cpi_stddev)
                                             .c_str()));
    }
    specs_checked_ += static_cast<int>(built.size());
  }

  // Sample accounting: every tapped sample was enqueued, delivered and
  // ingested exactly once.
  void CheckDelivery(Deployment& deployment) {
    int64_t enqueued = 0;
    int64_t delivered = 0;
    for (const Agent* agent : deployment.agents()) {
      enqueued += agent->health().samples_enqueued;
      delivered += agent->health().samples_delivered;
    }
    const int64_t ingested = deployment.aggregator().builder().samples_seen();
    result_->Check(enqueued == taps_.samples() && delivered == enqueued &&
                       ingested == delivered && deployment.samples_ingested() == delivered,
                   StrFormat("sample accounting: tapped %lld enqueued %lld delivered %lld "
                             "ingested %lld",
                             static_cast<long long>(taps_.samples()),
                             static_cast<long long>(enqueued), static_cast<long long>(delivered),
                             static_cast<long long>(ingested)));
  }

  // Sets up a deployment; returns its host time in seconds.
  double Setup(const std::function<std::unique_ptr<Deployment>()>& make,
               std::unique_ptr<Deployment>* out) {
    taps_.Reset();
    reference_ = ReferenceSpecs(config_.params.history_weight, config_.params.min_tasks_for_spec,
                                config_.params.min_samples_per_task);
    const int64_t start = NowNs();
    *out = make();
    (*out)->Prime(config_.prime);
    const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
    platforms_ = Platforms((*out)->cluster());
    taps_.Reserve(static_cast<double>(config_.chunk) / static_cast<double>(config_.prime));
    taps_.Fold(platforms_);
    if (!config_.storm) {
      CheckBuild(**out);
    }
    taps_.ClearRound();
    return seconds;
  }

  // Runs one chunk, then checks its outputs.
  void RunChunk(Deployment& deployment, int index, ChunkLog* log) {
    Cluster& world = deployment.cluster();
    const MicroTime begin = world.now();
    const size_t incidents_before = deployment.incidents().size();
    const int64_t samples_before = deployment.samples_ingested();
    std::vector<std::string> antagonists;
    const int64_t start = NowNs();
    if (config_.storm) {
      // Thrasher aggressiveness is drawn per round and machine from the seed.
      cpi2::Rng rng(config_.cluster.seed * 1000003 + static_cast<uint64_t>(index));
      for (Machine* machine : world.machines()) {
        TaskSpec thrasher = cpi2::CacheThrasherSpec(rng.Uniform(0.8, 0.95));
        antagonists.push_back(StrFormat("cache-thrasher.r%04d.%s", index,
                                        machine->name().c_str()));
        (void)machine->AddTask(antagonists.back(), thrasher);
      }
    }
    const int64_t ticks = config_.chunk / kMicrosPerSecond;
    const int64_t removal_tick = config_.antagonist_span / kMicrosPerSecond;
    const int64_t cpi2_before = deployment.cpi2_ns();
    for (int64_t t = 0; t < ticks; ++t) {
      if (config_.storm && t == removal_tick) {
        for (size_t m = 0; m < antagonists.size(); ++m) {
          (void)world.machine(m)->RemoveTask(antagonists[m]);
        }
      }
      deployment.Tick();
    }
    log->host_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    log->cpi2_s.push_back(static_cast<double>(deployment.cpi2_ns() - cpi2_before) * 1e-9);
    log->samples.push_back(static_cast<double>(deployment.samples_ingested() - samples_before));
    taps_.Fold(platforms_);
    machine_minutes_ += static_cast<int64_t>(world.machine_count()) * config_.chunk /
                        kMicrosPerMinute;

    if (!config_.storm) {
      CheckBuild(deployment);
      result_->attempted += static_cast<int64_t>(log->samples.back());
    } else {
      CheckRound(deployment, index, begin, antagonists, incidents_before, log);
      taps_.ClearRound();
    }
    CheckDelivery(deployment);
  }

  int64_t machine_minutes() const { return machine_minutes_; }
  int specs_checked() const { return specs_checked_; }

 private:
  // Ground truth for one storm round: on every machine the antagonist was
  // capped, and nothing else was.
  void CheckRound(Deployment& deployment, int index, MicroTime begin,
                  const std::vector<std::string>& antagonists, size_t incidents_before,
                  ChunkLog* log) {
    const std::deque<Incident>& all = deployment.incidents().incidents();
    const std::vector<Machine*>& machines = deployment.cluster().machines();
    for (size_t m = 0; m < machines.size(); ++m) {
      ++result_->attempted;
      const Incident* first_cap = nullptr;
      bool wrong_target = false;
      for (size_t i = incidents_before; i < all.size(); ++i) {
        const Incident& incident = all[i];
        if (incident.machine != machines[m]->name() ||
            incident.action != IncidentAction::kHardCap) {
          continue;
        }
        if (incident.action_target != antagonists[m]) {
          wrong_target = true;
          result_->Fail(StrFormat("round %d %s: capped %s, the antagonist is %s", index,
                                  machines[m]->name().c_str(), incident.action_target.c_str(),
                                  antagonists[m].c_str()));
        } else if (first_cap == nullptr) {
          first_cap = &incident;
        }
      }
      if (first_cap == nullptr || wrong_target) {
        if (first_cap == nullptr) {
          result_->Fail(StrFormat("round %d %s: antagonist %s never capped", index,
                                  machines[m]->name().c_str(), antagonists[m].c_str()));
        }
        ++result_->failed;
        continue;
      }
      if (index >= config_.min_chunks) {
        continue;  // simulated-time outcomes come from the fixed first rounds
      }
      const MicroTime cap = first_cap->timestamp;
      log->onset_to_cap_s.push_back(static_cast<double>(cap - begin) * 1e-6);
      const std::vector<std::pair<MicroTime, double>>* series =
          taps_.Series(first_cap->victim_task);
      if (series == nullptr) {
        ++log->unrecovered;
        continue;
      }
      double before_sum = 0.0;
      double during_sum = 0.0;
      int before_n = 0;
      int during_n = 0;
      MicroTime recovered_at = -1;
      for (const auto& [t, cpi] : *series) {
        if (t > begin && t <= cap) {
          before_sum += cpi;
          ++before_n;
        } else if (t > cap && t <= cap + config_.params.cap_duration) {
          during_sum += cpi;
          ++during_n;
        }
        if (t > cap && recovered_at < 0 && cpi < first_cap->cpi_threshold) {
          recovered_at = t;
        }
      }
      if (recovered_at < 0) {
        ++log->unrecovered;
      } else {
        log->cap_to_recovery_s.push_back(static_cast<double>(recovered_at - cap) * 1e-6);
      }
      if (before_n > 0 && during_n > 0) {
        log->victim_relative_cpi.push_back((during_sum / during_n) / (before_sum / before_n));
      }
    }
  }

  const SimConfig& config_;
  Result* result_;
  Taps taps_;
  ReferenceSpecs reference_;
  std::vector<std::string> platforms_;
  int64_t machine_minutes_ = 0;
  int specs_checked_ = 0;
};

std::vector<std::string> ForensicsJobs(const SimConfig& config, Deployment& deployment) {
  std::vector<std::string> jobs;
  if (config.storm) {
    for (int v = 0; v < config.victims_per_machine; ++v) {
      jobs.push_back(VictimJob(v));
    }
    return jobs;
  }
  // fleet_steady: the first four production jobs of the mix.
  for (Machine* machine : deployment.cluster().machines()) {
    for (cpi2::Task* task : machine->Tasks()) {
      const TaskSpec& spec = task->spec();
      if (spec.priority == cpi2::JobPriority::kProduction &&
          std::find(jobs.begin(), jobs.end(), spec.job_name) == jobs.end() && jobs.size() < 4) {
        jobs.push_back(spec.job_name);
      }
    }
  }
  return jobs;
}

ForensicsMix MixFor(const SimConfig& config, Deployment& deployment, MicroTime begin) {
  std::vector<std::string> machines;
  for (Machine* machine : deployment.cluster().machines()) {
    if (machines.size() < 8) {
      machines.push_back(machine->name());
    }
  }
  return MakeForensicsMix(ForensicsJobs(config, deployment), machines, begin,
                          deployment.cluster().now());
}

void ReportLoopOutcomes(const ChunkLog& log, Result* result, bool as_metrics) {
  const double onset = Median(log.onset_to_cap_s);
  const double onset_p90 = Percentile(log.onset_to_cap_s, 90.0);
  const double recovery = Median(log.cap_to_recovery_s);
  const double relative = Median(log.victim_relative_cpi);
  Note("injections (fixed rounds)", static_cast<double>(log.onset_to_cap_s.size()));
  Note("onset_to_cap_s (sim, median)", onset, "s");
  Note("onset_to_cap_p90_s (sim)", onset_p90, "s");
  Note("cap_to_recovery_s (sim, median)", recovery, "s");
  Note("victims not back under threshold", static_cast<double>(log.unrecovered));
  Note("victim_relative_cpi (median)", relative);
  if (as_metrics) {
    result->Add("loop.onset_to_cap_s", onset, "sim_s");
    result->Add("loop.onset_to_cap_p90_s", onset_p90, "sim_s");
    result->Add("loop.cap_to_recovery_s", recovery, "sim_s");
    result->Add("loop.victim_relative_cpi", relative, "ratio");
  }
  if (!log.victim_relative_cpi.empty()) {
    result->Check(relative < 1.0,
                  StrFormat("victim_relative_cpi %.3f is not below 1", relative));
  }
}

Result EndToEnd(const SimConfig& config, const RunOptions& options) {
  Result result;
  SimRun run(config, &result);
  // Each set-up and each chunk runs pinned to one CPU, the next in turn,
  // and is followed by one run of the reference kernel; see HostSpeed.
  CpuRotation rotation;
  HostSpeed speed;
  std::vector<double> setups;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < config.setups; ++i) {
    deployment.reset();
    rotation.Next();
    setups.push_back(run.Setup(
        [&] {
          return std::make_unique<HarnessDeployment>(config, &run.taps());
        },
        &deployment));
    speed.Mark();
  }
  // The injected busy-wait is given at the reference speed; spin the
  // matching host time at the speed the set-ups measured.
  static_cast<HarnessDeployment*>(deployment.get())
      ->set_inject_us_per_tick(options.inject_us_per_machine_minute / speed.Factor() *
                               static_cast<double>(config.machines) / 60.0);
  const MicroTime begin = deployment->cluster().now();
  ChunkLog log;
  const int64_t start = NowNs();
  double peak_rss_mib = 0.0;
  for (int chunk = 0;; ++chunk) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (chunk >= config.min_chunks && elapsed >= options.seconds) {
      break;
    }
    rotation.Next();
    run.RunChunk(*deployment, chunk, &log);
    speed.Mark();
    if (chunk + 1 == config.min_chunks) {
      // Over set-up and the fixed first chunks: later chunks only exist on
      // faster hosts, and the incident log grows with every one.
      peak_rss_mib = PeakRssMib();
    }
  }
  const double mm_per_chunk =
      static_cast<double>(config.machines) * static_cast<double>(config.chunk / kMicrosPerMinute);
  Note("chunks", static_cast<double>(log.host_s.size()));
  Note("machine-minutes per chunk", mm_per_chunk);
  Note("chunk host seconds (median, raw)", Median(log.host_s), "s");
  Note("reference kernel seconds (median)", Median(speed.kernel_seconds()), "s");
  Note("specs checked against reference", static_cast<double>(run.specs_checked()));
  Note("incidents logged", static_cast<double>(deployment->incidents().size()));
  if (config.storm) {
    ReportLoopOutcomes(log, &result, false);
  }
  const ForensicsMix mix = MixFor(config, *deployment, begin);
  result.attempted += CheckForensics(deployment->incidents(), mix, &result);

  // A chunk's cost: the lower quartile over the run's chunks, at the
  // reference speed. The CPI2 deployment's part of it: the median over
  // chunks of its share of each chunk's host time — a slow stretch slows
  // both parts of a chunk alike, so the share holds still where the
  // absolute time does not.
  const double factor = speed.Factor();
  const double chunk_s = Quantile(log.host_s, 0.25) * factor;
  std::vector<double> cpi2_share;
  for (size_t i = 0; i < log.host_s.size(); ++i) {
    cpi2_share.push_back(log.cpi2_s[i] / log.host_s[i]);
  }
  const double samples_per_chunk =
      std::accumulate(log.samples.begin(), log.samples.end(), 0.0) /
      static_cast<double>(log.samples.size());
  result.Add("setup_s", Median(setups) * factor, "s");
  result.Add("machine_minutes_per_s", mm_per_chunk / chunk_s, "1/s");
  result.Add("cpi2_us_per_machine_minute", 1e6 * chunk_s * Median(cpi2_share) / mm_per_chunk,
             "us");
  result.Add("samples_per_s", samples_per_chunk / chunk_s, "1/s");
  result.Add("peak_rss_mib", peak_rss_mib, "MiB");
  return result;
}

// Fixed-work traced run: the harness for min_chunks, then the benchmark's
// own loop for the same chunks, compared, with per-layer numbers.
Result Traced(const SimConfig& config, const RunOptions& options) {
  Result result;
  Digest untraced_digest;
  double untraced_s = 0.0;
  {
    SimRun run(config, &result);
    std::unique_ptr<Deployment> harness;
    run.Setup([&] { return std::make_unique<HarnessDeployment>(config, &run.taps()); },
              &harness);
    ChunkLog log;
    for (int chunk = 0; chunk < config.min_chunks; ++chunk) {
      run.RunChunk(*harness, chunk, &log);
    }
    for (double s : log.host_s) {
      untraced_s += s;
    }
    untraced_digest = MakeDigest(*harness);
  }
  const int64_t attempted_untraced = result.attempted;
  result.attempted = 0;

  SimRun run(config, &result);
  std::unique_ptr<Deployment> deployment;
  run.Setup([&] { return std::make_unique<TracedDeployment>(config, &run.taps()); }, &deployment);
  auto* traced = static_cast<TracedDeployment*>(deployment.get());
  const SimLayers at_start = traced->layers();
  int64_t samples_at_start = 0;
  int64_t outliers_at_start = 0;
  int64_t anomalies_at_start = 0;
  int64_t incidents_at_start = 0;
  for (const Agent* agent : traced->agents()) {
    samples_at_start += agent->samples_processed();
    outliers_at_start += agent->outliers_flagged();
    anomalies_at_start += agent->anomalies_detected();
    incidents_at_start += agent->incidents_reported();
  }
  const MicroTime begin = traced->cluster().now();
  ChunkLog log;
  for (int chunk = 0; chunk < config.min_chunks; ++chunk) {
    run.RunChunk(*traced, chunk, &log);
  }
  double traced_s = 0.0;
  for (double s : log.host_s) {
    traced_s += s;
  }
  const Digest traced_digest = MakeDigest(*traced);
  result.Check(result.attempted == attempted_untraced,
               "traced run attempted a different number of operations");
  result.Check(traced_digest.samples == untraced_digest.samples &&
                   traced_digest.enqueued == untraced_digest.enqueued &&
                   traced_digest.delivered == untraced_digest.delivered,
               StrFormat("traced run ingested %lld samples, untraced %lld",
                         static_cast<long long>(traced_digest.samples),
                         static_cast<long long>(untraced_digest.samples)));
  result.Check(traced_digest.incidents == untraced_digest.incidents,
               StrFormat("traced run logged %zu incidents, untraced %zu (or they differ)",
                         traced_digest.incidents.size(), untraced_digest.incidents.size()));
  result.Check(SameSpecs(traced_digest.specs, untraced_digest.specs),
               "traced run built different specs");

  // Per-layer numbers over the timed chunks only.
  SimLayers d = traced->layers();
  auto minus = [](LayerClock& a, const LayerClock& b) {
    a.ns -= b.ns;
    a.calls -= b.calls;
  };
  minus(d.sim, at_start.sim);
  minus(d.sync, at_start.sync);
  minus(d.agent, at_start.agent);
  minus(d.perf, at_start.perf);
  minus(d.cgroup, at_start.cgroup);
  minus(d.tap, at_start.tap);
  minus(d.identifier, at_start.identifier);
  minus(d.flush, at_start.flush);
  minus(d.decode, at_start.decode);
  minus(d.agg_add, at_start.agg_add);
  minus(d.agg_tick, at_start.agg_tick);
  minus(d.agg_build, at_start.agg_build);
  minus(d.spec_deliver, at_start.spec_deliver);
  minus(d.log_add, at_start.log_add);
  d.batch_bytes -= at_start.batch_bytes;
  d.suspects -= at_start.suspects;
  int64_t samples = -samples_at_start;
  int64_t outliers = -outliers_at_start;
  int64_t anomalies = -anomalies_at_start;
  int64_t incidents = -incidents_at_start;
  for (const Agent* agent : traced->agents()) {
    samples += agent->samples_processed();
    outliers += agent->outliers_flagged();
    anomalies += agent->anomalies_detected();
    incidents += agent->incidents_reported();
  }
  int64_t caps = 0;
  for (const Incident& incident : traced->incidents().incidents()) {
    if (incident.timestamp > begin && incident.action == IncidentAction::kHardCap) {
      ++caps;
    }
  }
  const double mm = static_cast<double>(run.machine_minutes());
  const double ingested = static_cast<double>(d.agg_add.calls);
  const double batches = static_cast<double>(std::max<int64_t>(1, d.decode.calls));
  auto per = [](const LayerClock& layer, double units, double scale) {
    return units > 0.0 ? static_cast<double>(layer.ns) * scale / units : 0.0;
  };
  const LayerBreakdown breakdown = d.Breakdown(static_cast<int64_t>(traced_s * 1e9));
  const double gap = breakdown.PrintAndGap(options.workload.c_str());
  result.Check(gap <= 0.05, StrFormat("layer self times miss the total by %.1f%%", 100 * gap));
  const double overhead = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  Note("tracing overhead (traced/untraced - 1)", overhead);
  if (config.storm) {
    ReportLoopOutcomes(log, &result, true);
  } else {
    result.Add("loop.onset_to_cap_s", 0.0, "sim_s");
    result.Add("loop.onset_to_cap_p90_s", 0.0, "sim_s");
    result.Add("loop.cap_to_recovery_s", 0.0, "sim_s");
    result.Add("loop.victim_relative_cpi", 0.0, "ratio");
  }
  const ForensicsMix mix = MixFor(config, *traced, begin);
  result.attempted += CheckForensics(traced->incidents(), mix, &result);
  const ForensicsTiming forensics =
      TimeForensics(traced->incidents(), mix, options.size == Size::kSmoke ? 0.05 : 0.5);

  const double build_calls = static_cast<double>(d.agg_build.calls);
  result.Add("sim.tick_us", per(d.sim, mm, 1e-3), "us");
  result.Add("perf.counter_reads", static_cast<double>(d.perf.calls), "count");
  result.Add("perf.counter_read_us", per(d.perf, static_cast<double>(d.perf.calls), 1e-3), "us");
  result.Add("cgroup.controller_calls", static_cast<double>(d.cgroup.calls), "count");
  result.Add("core.agent.tick_us", per(d.agent, mm, 1e-3), "us");
  result.Add("core.agent.samples", static_cast<double>(samples), "count");
  result.Add("core.agent.outliers", static_cast<double>(outliers), "count");
  result.Add("core.agent.anomalies", static_cast<double>(anomalies), "count");
  result.Add("core.agent.incidents", static_cast<double>(incidents), "count");
  result.Add("core.agent.flush_us", per(d.flush, batches, 1e-3), "us");
  result.Add("core.identifier.analyze_us",
             per(d.identifier, static_cast<double>(d.identifier.calls), 1e-3), "us");
  result.Add("core.identifier.suspects_per_analysis",
             d.identifier.calls > 0 ? static_cast<double>(d.suspects) / d.identifier.calls : 0.0,
             "count");
  result.Add("core.enforcement.caps", static_cast<double>(caps), "count");
  result.Add("wire.decode_us", per(d.decode, batches, 1e-3), "us");
  result.Add("wire.batch_bytes", static_cast<double>(d.batch_bytes) / batches, "B");
  result.Add("wire.bytes_per_sample",
             ingested > 0.0 ? static_cast<double>(d.batch_bytes) / ingested : 0.0, "B");
  LayerClock ingest = d.agg_add;
  ingest.ns += d.agg_tick.ns;
  result.Add("core.aggregator.add_us", per(ingest, ingested, 1e-3), "us");
  result.Add("core.aggregator.build_ms", per(d.agg_build, build_calls, 1e-6), "ms");
  result.Add("core.aggregator.restore_ms", 0.0, "ms");
  result.Add("core.aggregator.spec_deliver_us",
             per(d.spec_deliver, static_cast<double>(d.spec_deliver.calls), 1e-3), "us");
  result.Add("core.incident_log.add_us",
             per(d.log_add, static_cast<double>(d.log_add.calls), 1e-3), "us");
  result.Add("core.incident_log.select_us", forensics.select_us, "us");
  result.Add("core.incident_log.top_antagonists_us", forensics.top_antagonists_us, "us");
  result.Add("core.incident_log.queries_per_s", forensics.queries_per_s, "1/s");
  result.Add("net.loop_us", 0.0, "us");
  result.Add("net.frames_sent", 0.0, "count");
  result.Add("net.bytes_sent", 0.0, "count");
  result.Add("net.transport.window_stalls", 0.0, "count");
  result.Add("net.transport.send_backpressure", 0.0, "count");
  result.Add("net.transport.window_depth_peak", 0.0, "count");
  result.Add("trace.overhead", overhead, "ratio");
  result.Add("trace.unattributed", gap, "ratio");
  return result;
}

}  // namespace

std::unique_ptr<cpi2::Cluster> MakeFleet(Size size, uint64_t placement_seed) {
  RunOptions options;
  options.size = size;
  options.seed = placement_seed;
  const SimConfig config = MakeConfig(false, options);
  auto cluster = std::make_unique<Cluster>(config.cluster);
  Populate(*cluster, config);
  return cluster;
}

Result RunFleetSteady(const RunOptions& options) {
  const SimConfig config = MakeConfig(false, options);
  return options.trace ? Traced(config, options) : EndToEnd(config, options);
}

Result RunAntagonistStorm(const RunOptions& options) {
  const SimConfig config = MakeConfig(true, options);
  return options.trace ? Traced(config, options) : EndToEnd(config, options);
}

}  // namespace perfbench
