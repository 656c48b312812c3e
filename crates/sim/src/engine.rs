//! The discrete-event simulation loop.

use std::fs::File;
use std::io::BufWriter;

use agile_core::{
    ClusterObservation, ControlPlane, HostObservation, ManagementAction, PlacementFacts,
    VirtManager,
};
use cluster::{Cluster, ClusterError, DemandOutcome, HostId, VmId};
use power::PowerState;
use simcore::{EventQueue, SimDuration, SimTime};

use crate::demand::DemandWindow;
use crate::events::{EventKind, EventRecord};
use crate::metrics::MetricsCollector;
use crate::trace::{self, SimTelemetry};
use crate::{Experiment, FailureModel, SimError, SimReport};
use obs::{JsonlSink, SpanName, SpanSummary, SpanTracer};
use power::TransitionKind;
use simcore::RngStream;
use workload::Lifetime;

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Demand update + management round.
    Control,
    /// A host's power transition completes.
    PowerDone(HostId),
    /// A VM's live migration completes.
    MigrationDone(VmId),
    /// A VM is provisioned (lifecycle churn).
    VmArrive(VmId),
    /// A VM is retired (lifecycle churn).
    VmDepart(VmId),
}

/// [`PlacementFacts`] over the live cluster: the ground truth the control
/// plane's conflict check consults at commit time.
struct ClusterFacts<'a> {
    cluster: &'a Cluster,
}

impl PlacementFacts for ClusterFacts<'_> {
    fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.cluster.placement().host_of(vm)
    }

    fn is_migrating(&self, vm: VmId) -> bool {
        self.cluster.migration_of(vm).is_some()
    }

    fn vm_mem_gb(&self, vm: VmId) -> f64 {
        self.cluster.vm(vm).map(|s| s.mem_gb()).unwrap_or(0.0)
    }

    fn mem_committed_gb(&self, host: HostId) -> f64 {
        self.cluster.mem_committed_gb(host)
    }

    fn mem_capacity_gb(&self, host: HostId) -> f64 {
        self.cluster
            .host(host)
            .map(|h| h.capacity().mem_gb)
            .unwrap_or(0.0)
    }

    fn is_operational(&self, host: HostId) -> bool {
        self.cluster
            .host(host)
            .map(|h| h.is_operational())
            .unwrap_or(false)
    }

    fn power_state(&self, host: HostId) -> PowerState {
        self.cluster
            .host(host)
            .map(|h| h.power_state())
            .unwrap_or(PowerState::Off)
    }

    fn has_pending_transition(&self, host: HostId) -> bool {
        self.cluster
            .host(host)
            .ok()
            .and_then(|h| h.power().pending())
            .is_some()
    }

    fn is_evacuated(&self, host: HostId) -> bool {
        self.cluster.is_evacuated(host)
    }
}

/// The datacenter simulator behind [`crate::SimulationBuilder`]'s engine
/// mode.
///
/// Each control tick the simulator (1) applies the fleet's demand to the
/// cluster, (2) records metrics, (3) hands the control plane an
/// observation and executes the due actions it admits, scheduling
/// completion events for migrations and power transitions. Actions that
/// the cluster rejects (because the world moved since the manager
/// planned) are counted as failures, not errors — exactly how a real
/// management plane behaves.
#[derive(Debug)]
pub(crate) struct DatacenterSim {
    cluster: Cluster,
    /// Every VM's demand per control tick, read from the scenario's
    /// shared traces a window of ticks ahead.
    demand: DemandWindow,
    /// The control plane: the scheduler replicas, their views, the
    /// latency queue and the commit ledger.
    control: ControlPlane,
    queue: EventQueue<Event>,
    control_interval: SimDuration,
    horizon: SimDuration,
    collector: MetricsCollector,
    scenario_name: String,
    seed: u64,
    policy_label: String,
    failures: FailureModel,
    failure_rng: RngStream,
    migration_fail_rng: RngStream,
    hang_rng: RngStream,
    /// Hosts whose in-flight transition hung: at its (stretched)
    /// completion it force-fails without consuming a random draw.
    hung: Vec<bool>,
    /// Correlated rack-outage windows `(start, end)` bucketed by rack,
    /// pre-generated at run start; transitions completing inside one of
    /// their rack's windows force-fail.
    rack_bursts: Vec<Vec<(SimTime, SimTime)>>,
    event_log: Option<Vec<EventRecord>>,
    /// The JSONL trace writer and the path it writes (as displayed in
    /// errors), when the experiment asked for a trace file.
    sink: Option<(JsonlSink<BufWriter<File>>, String)>,
    telemetry: SimTelemetry,
    /// Hierarchical wall-clock tracer. Top-level spans are the tick
    /// phases (`demand`/`observe`/`plan`/`execute`/`dispatch`); the
    /// manager and the action executor nest their sub-steps beneath
    /// them. Disabled by default — one branch per enter/exit.
    tracer: SpanTracer,
    s_demand: SpanName,
    s_observe: SpanName,
    s_plan: SpanName,
    s_execute: SpanName,
    s_dispatch: SpanName,
    s_migration: SpanName,
    s_power: SpanName,
    peak_queue_len: usize,
    /// Reusable per-tick buffers: the demand vector, the demand outcome,
    /// and the manager observation, sized to the fleet on the first tick
    /// (the resizes after it are no-ops). Every tick overwrites each
    /// slot, so steady-state ticks allocate nothing. A managed round
    /// swaps `demand_buf` into the observation's demand column, so the
    /// two trade allocations every round.
    demand_buf: Vec<f64>,
    outcome_buf: DemandOutcome,
    obs_buf: ClusterObservation,
}

impl DatacenterSim {
    /// Builds the run `experiment` describes in one step: performs the
    /// initial VM placement (round-robin across hosts, memory-checked),
    /// installs the control plane's scheduler replicas, and attaches the
    /// failure model, the audit log, the trace sink and, with
    /// `profiling`, the span tracer.
    ///
    /// Span tracing covers the tick phases
    /// (`demand`/`observe`/`plan`/`execute`/`dispatch`) plus the nested
    /// sub-steps the manager records under `plan`
    /// (`rescore`/`overload`/`consolidate` > `candidate_scan`/`trial` >
    /// `undo`/...) and the executor records under `execute`
    /// (`migration`/`power`). Its numbers only ever leave through the
    /// `run-summary` trace record and the out-of-band span summary —
    /// never the report, which must stay bit-deterministic.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the manager config is rejected,
    /// [`SimError::InitialPlacement`] if any VM fits on no host, and
    /// [`SimError::TraceIo`] if the trace file cannot be created.
    pub(crate) fn new(experiment: &Experiment, profiling: bool) -> Result<Self, SimError> {
        let scenario = experiment.scenario();
        let config = experiment.resolve_config();
        let policy_label = config.policy().label().to_string();
        let manager = VirtManager::new(config, scenario.host_specs(), scenario.fleet().vm_specs())
            .map_err(|e| SimError::InvalidConfig {
                message: format!("manager config: {e}"),
            })?;
        let mut cluster = Cluster::new(
            scenario.host_specs().to_vec(),
            scenario.fleet().vm_specs().to_vec(),
            SimTime::ZERO,
        );
        let lifetimes = scenario.fleet().lifetimes().lifetimes();
        place_round_robin(&mut cluster, lifetimes)?;
        let sink = match &experiment.trace_path {
            Some(path) => {
                let shown = path.display().to_string();
                let sink = JsonlSink::create(path).map_err(|e| SimError::TraceIo {
                    path: shown.clone(),
                    message: e.to_string(),
                })?;
                Some((sink, shown))
            }
            None => None,
        };

        let mut tracer = SpanTracer::new();
        if profiling {
            tracer.enable();
        }
        let s_demand = tracer.name("demand");
        let s_observe = tracer.name("observe");
        let s_plan = tracer.name("plan");
        let s_execute = tracer.name("execute");
        let s_dispatch = tracer.name("dispatch");
        let s_migration = tracer.name("migration");
        let s_power = tracer.name("power");

        let (control_interval, horizon) = (experiment.resolved_interval(), experiment.horizon);
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Event::Control);
        // Lifecycle events for transient VMs.
        let end = SimTime::ZERO + horizon;
        for (i, life) in lifetimes.iter().enumerate() {
            let vm = VmId(i as u32);
            if life.arrival > SimTime::ZERO && life.arrival <= end {
                queue.schedule(life.arrival, Event::VmArrive(vm));
            }
            if let Some(departure) = life.departure {
                if departure <= end {
                    queue.schedule(departure, Event::VmDepart(vm));
                }
            }
        }

        let num_hosts = cluster.num_hosts();
        let control = ControlPlane::new(manager, experiment.control_plane_knobs());
        Ok(DatacenterSim {
            cluster,
            demand: DemandWindow::new(scenario.fleet(), control_interval, horizon),
            control,
            queue,
            control_interval,
            horizon,
            collector: MetricsCollector::new(control_interval),
            scenario_name: scenario.name().to_string(),
            seed: scenario.seed(),
            policy_label,
            failures: experiment.failures,
            // Each injection kind draws from its own substream (created
            // unconditionally) so enabling one knob never perturbs the
            // draw positions of another — and a knob at zero consumes no
            // draws at all, keeping injection-off runs byte-identical.
            failure_rng: RngStream::new(scenario.seed()).substream(0xFA11),
            migration_fail_rng: RngStream::new(scenario.seed()).substream(0x4D16),
            hang_rng: RngStream::new(scenario.seed()).substream(0x57CC),
            hung: vec![false; num_hosts],
            rack_bursts: Vec::new(),
            event_log: experiment.record_events.then(Vec::new),
            sink,
            telemetry: SimTelemetry::new(),
            tracer,
            s_demand,
            s_observe,
            s_plan,
            s_execute,
            s_dispatch,
            s_migration,
            s_power,
            peak_queue_len: 0,
            demand_buf: Vec::new(),
            outcome_buf: DemandOutcome::default(),
            obs_buf: ClusterObservation::default(),
        })
    }

    fn log(&mut self, time: SimTime, kind: EventKind) {
        self.telemetry.count_event(&kind);
        if let Some((sink, _)) = &mut self.sink {
            sink.emit(&trace::event_json(time, &kind));
        }
        if let Some(log) = &mut self.event_log {
            log.push(EventRecord { time, kind });
        }
    }

    /// Runs to the horizon and returns every output the engine produces:
    /// the bit-deterministic report, the final cluster, and (when
    /// tracing was enabled) the hierarchical span summary. This is the single execution path
    /// behind [`crate::SimulationBuilder`].
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable cluster and planning errors (these
    /// indicate engine bugs; recoverable action rejections are counted
    /// in the report).
    pub(crate) fn run_inner(
        mut self,
    ) -> Result<(SimReport, Cluster, Option<SpanSummary>), SimError> {
        self.run_to_horizon()?;
        self.finish()
    }

    /// Handles every event due by the horizon.
    fn run_to_horizon(&mut self) -> Result<(), SimError> {
        let end = SimTime::ZERO + self.horizon;
        self.generate_rack_bursts(end);
        while let Some((now, event)) = self.next_event(end) {
            self.handle(now, event, end)?;
        }
        Ok(())
    }

    /// Pops the next event due by `end`, tracking the peak queue length.
    fn next_event(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        if self.queue.peek_time()? > end {
            return None;
        }
        self.peak_queue_len = self.peak_queue_len.max(self.queue.len());
        self.queue.pop()
    }

    /// Handles one event.
    fn handle(&mut self, now: SimTime, event: Event, end: SimTime) -> Result<(), SimError> {
        match event {
            // Control ticks time their own observe/plan/execute
            // phases; `dispatch` covers the event-loop work proper.
            Event::Control => self.control_tick(now, end)?,
            // A `?` below leaves the dispatch span open, but those
            // errors are unrecoverable engine bugs that abort the
            // whole run — the tracer is dropped with it.
            Event::PowerDone(host) => {
                self.tracer.enter(self.s_dispatch);
                self.finish_power_transition(host, now)?;
                self.collector
                    .record_power(now, self.cluster.total_power_w());
                self.tracer.exit(self.s_dispatch);
            }
            Event::MigrationDone(vm) => {
                self.tracer.enter(self.s_dispatch);
                let p = self.failures.migration_failure_prob();
                if p > 0.0 && self.migration_fail_rng.chance(p) {
                    self.cluster.fail_migration(vm, now)?;
                    self.log(now, EventKind::MigrationFailed { vm });
                } else {
                    self.cluster.complete_migration(vm, now)?;
                    self.log(now, EventKind::MigrationCompleted { vm });
                }
                self.tracer.exit(self.s_dispatch);
            }
            Event::VmArrive(vm) => {
                self.tracer.enter(self.s_dispatch);
                self.vm_arrive(vm, now, end);
                self.tracer.exit(self.s_dispatch);
            }
            Event::VmDepart(vm) => {
                self.tracer.enter(self.s_dispatch);
                self.vm_depart(vm, now)?;
                self.tracer.exit(self.s_dispatch);
            }
        }
        Ok(())
    }

    /// Closes the run at the horizon and assembles its outputs.
    fn finish(mut self) -> Result<(SimReport, Cluster, Option<SpanSummary>), SimError> {
        let end = SimTime::ZERO + self.horizon;
        self.cluster.sync(end);
        self.telemetry.record_residency(&self.cluster);
        self.telemetry
            .registry
            .set(self.telemetry.peak_queue, self.peak_queue_len as f64);
        // Fold the deterministic op-counters into the metrics snapshot.
        // Unlike the wall-clock spans these are pure functions of the
        // scenario seed, so they may — must — enter the report: the
        // differential suite then verifies them like any other metric.
        // Closing the plane expires the batches still aging in its
        // latency queue, so the commit ledger stays balanced.
        let (kept, work) = self.control.close();
        for (name, value) in work {
            let id = self.telemetry.registry.counter(name);
            self.telemetry.registry.add(id, value);
        }
        // Every migration the cluster accepted logged its start.
        let started = self
            .telemetry
            .registry
            .count(self.telemetry.migrations_started);
        let executed = self.telemetry.registry.counter("work.migrations.executed");
        self.telemetry.registry.add(executed, started);
        let dirty = self.telemetry.registry.counter("work.cluster.dirty_marks");
        self.telemetry
            .registry
            .add(dirty, self.cluster.dirty_marks());
        let report = self.collector.finalize(
            self.scenario_name,
            self.policy_label,
            self.seed,
            self.horizon,
            self.cluster.num_hosts(),
            self.cluster.num_vms(),
            self.cluster.total_energy_j(),
            kept,
            self.cluster.migration_busy_secs(),
            self.cluster.transition_busy_secs(),
            self.event_log.take().unwrap_or_default(),
            self.telemetry.registry.snapshot(),
        );
        let spans = self.tracer.is_enabled().then(|| self.tracer.summary());
        if let Some((sink, path)) = &mut self.sink {
            sink.emit(&trace::run_summary_json(&report, spans.as_ref()));
            // The run reached its horizon either way; a trace that lost
            // records still fails it, so no partial file passes as whole.
            sink.flush().map_err(|e| SimError::TraceIo {
                path: path.clone(),
                message: e.to_string(),
            })?;
        }
        Ok((report, self.cluster, spans))
    }

    /// Completes (or fault-injects) a due power transition.
    fn finish_power_transition(&mut self, host: HostId, now: SimTime) -> Result<(), SimError> {
        // A hung transition already committed to failing when the stuck
        // interval was scheduled — no draw is consumed here.
        if std::mem::take(&mut self.hung[host.index()]) {
            let state = self.cluster.fail_power_transition(host, now)?;
            self.log(now, EventKind::PowerFailed { host, state });
            return Ok(());
        }
        // Correlated outage: every transition completing on a bursting
        // rack fails, again without consuming an independent draw.
        if self.rack_bursting(host, now) {
            let state = self.cluster.fail_power_transition(host, now)?;
            self.log(now, EventKind::PowerFailed { host, state });
            return Ok(());
        }
        let pending_kind = self
            .cluster
            .host(host)
            .map_err(SimError::from)?
            .power()
            .pending()
            .map(|(kind, _)| kind);
        let fail_prob = match pending_kind {
            // An unpark is resume-class hardware work (C6-class exit), so
            // it shares the resume failure probability.
            Some(TransitionKind::Resume | TransitionKind::Unpark) => {
                self.failures.resume_failure_prob()
            }
            Some(TransitionKind::Boot) => self.failures.boot_failure_prob(),
            _ => 0.0,
        };
        if fail_prob > 0.0 && self.failure_rng.chance(fail_prob) {
            let state = self.cluster.fail_power_transition(host, now)?;
            self.log(now, EventKind::PowerFailed { host, state });
        } else {
            let state = self.cluster.complete_power_transition(host, now)?;
            self.log(now, EventKind::PowerCompleted { host, state });
        }
        Ok(())
    }

    /// Pre-generates correlated rack-outage windows for the whole run,
    /// one decision per rack per control epoch, from a dedicated
    /// substream. A model with bursts disabled consumes zero draws.
    fn generate_rack_bursts(&mut self, end: SimTime) {
        let prob = self.failures.rack_burst_prob();
        let rack_size = self.failures.rack_size();
        if prob <= 0.0 || rack_size == 0 {
            return;
        }
        let racks = self.cluster.num_hosts().div_ceil(rack_size);
        let duration = self.failures.rack_burst_duration();
        let mut rng = RngStream::new(self.seed).substream(0x7ACC);
        self.rack_bursts = vec![Vec::new(); racks];
        let mut t = SimTime::ZERO;
        while t <= end {
            for windows in &mut self.rack_bursts {
                if rng.chance(prob) {
                    windows.push((t, t + duration));
                }
            }
            t += self.control_interval;
        }
    }

    /// Whether `host`'s rack has an outage window covering `now`.
    fn rack_bursting(&self, host: HostId, now: SimTime) -> bool {
        let rack_size = self.failures.rack_size();
        if rack_size == 0 || self.rack_bursts.is_empty() {
            return false;
        }
        self.rack_bursts[host.index() / rack_size]
            .iter()
            .any(|&(start, stop)| start <= now && now < stop)
    }

    /// Rolls the hang die for a transition just begun; on a hang, the
    /// completion stretches to `hang_factor`× the nominal latency and the
    /// host is marked to force-fail at the stretched instant. Returns the
    /// instant the `PowerDone` event should fire at.
    fn maybe_hang(
        &mut self,
        host: HostId,
        kind: TransitionKind,
        now: SimTime,
        done: SimTime,
    ) -> SimTime {
        let p = self.failures.hang_prob();
        if p <= 0.0 || !self.hang_rng.chance(p) {
            return done;
        }
        let nominal_ms = done.since(now).as_millis() as f64;
        let stuck = now
            + SimDuration::from_millis((nominal_ms * self.failures.hang_factor()).round() as u64);
        self.cluster
            .delay_power_transition(host, stuck)
            .expect("transition just began");
        self.hung[host.index()] = true;
        self.log(now, EventKind::PowerStuck { host, kind });
        stuck
    }

    /// Provisions an arriving VM on the operational host with the most
    /// free memory (ties to the highest host index), found in
    /// O(log hosts) by [`Cluster::most_free_host`]; retries next control
    /// round if nothing fits right now.
    fn vm_arrive(&mut self, vm: VmId, now: SimTime, end: SimTime) {
        let mem_needed = self
            .cluster
            .vm(vm)
            .expect("lifecycle events reference fleet VMs")
            .mem_gb();
        match self.cluster.most_free_host(mem_needed) {
            Some(host) => {
                self.cluster
                    .place(vm, host)
                    .expect("destination was validated");
                self.log(now, EventKind::VmArrived { vm, host });
            }
            None => {
                // Capacity crunch: retry after the next management round
                // (which will wake hosts once the VM's demand shows up as
                // unserved pressure).
                self.log(now, EventKind::VmArrivalDeferred { vm });
                let retry = now + self.control_interval;
                if retry <= end {
                    self.queue.schedule(retry, Event::VmArrive(vm));
                } else {
                    // The horizon closes before another attempt: record
                    // the rejection instead of dropping the VM silently.
                    self.log(now, EventKind::VmArrivalRejected { vm });
                }
            }
        }
    }

    /// Retires a departing VM; if it is mid-migration, the departure
    /// re-fires right after the migration completes.
    fn vm_depart(&mut self, vm: VmId, _now: SimTime) -> Result<(), SimError> {
        if let Some(migration) = self.cluster.migration_of(vm) {
            // The completion event was scheduled earlier, so at
            // completes_at it pops before this re-scheduled departure.
            self.queue
                .schedule(migration.completes_at, Event::VmDepart(vm));
            return Ok(());
        }
        match self.cluster.unplace(vm) {
            Ok(_) => {
                self.log(_now, EventKind::VmDeparted { vm });
                Ok(())
            }
            // Arrival never found a slot; nothing to retire.
            Err(ClusterError::VmNotPlaced(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn control_tick(&mut self, now: SimTime, end: SimTime) -> Result<(), SimError> {
        // 1. Demand update, through the reusable tick buffers.
        self.tracer.enter(self.s_demand);
        self.demand_buf.clear();
        self.demand_buf.extend_from_slice(self.demand.row(now));
        self.cluster
            .apply_demand_into(now, &self.demand_buf, &mut self.outcome_buf);
        self.collector
            .record_tick(now, &self.outcome_buf, &self.cluster);
        self.tracer.exit(self.s_demand);

        // 2. Management round.
        self.control_round(now)?;
        self.collector
            .record_power(now, self.cluster.total_power_w());
        self.telemetry.registry.set(
            self.telemetry.hosts_on,
            self.cluster.num_operational_hosts() as f64,
        );

        // 3. Next tick.
        let next = now + self.control_interval;
        if next <= end {
            self.queue.schedule(next, Event::Control);
        }
        Ok(())
    }

    /// One management round: observe, let the control plane plan (each
    /// scheduler over its merged view, filtered to the actions it owns,
    /// queued behind the control-loop latency), then commit the due
    /// round's actions that the plane admits.
    ///
    /// The observation carries this tick's demand vector, so it must
    /// run after the tick's demand update.
    fn control_round(&mut self, now: SimTime) -> Result<(), SimError> {
        self.tracer.enter(self.s_observe);
        let mut obs = std::mem::take(&mut self.obs_buf);
        self.fill_observation(now, &mut obs);
        self.tracer.exit(self.s_observe);

        self.tracer.enter(self.s_plan);
        let kept = self.control.plan(&obs, &mut self.tracer)?;
        self.obs_buf = obs;
        self.tracer.exit(self.s_plan);

        self.telemetry.registry.inc(self.telemetry.rounds);
        self.telemetry
            .registry
            .observe(self.telemetry.actions_per_round, kept as f64);
        if let Some((sink, _)) = &mut self.sink {
            for decision in self.control.decisions() {
                sink.emit(&decision.to_json());
            }
        }

        let Some(round) = self.control.due_round() else {
            return Ok(());
        };
        self.tracer.enter(self.s_execute);
        for (sched, batch) in round.into_iter().enumerate() {
            for action in batch {
                let facts = ClusterFacts {
                    cluster: &self.cluster,
                };
                match self.control.admit(sched, &action, &facts) {
                    Ok(()) => self.dispatch_action(action, now),
                    Err(reason) => self.log(
                        now,
                        EventKind::CommitRejected {
                            scheduler: sched as u32,
                            reason,
                        },
                    ),
                }
            }
        }
        self.tracer.exit(self.s_execute);
        Ok(())
    }

    /// Hands one admitted action to the cluster, timing it and counting
    /// the outcome. Cluster refusals are plan/world races — counted, not
    /// fatal.
    fn dispatch_action(&mut self, action: ManagementAction, now: SimTime) {
        let is_migrate = matches!(action, ManagementAction::Migrate { .. });
        let span = if is_migrate {
            self.s_migration
        } else {
            self.s_power
        };
        self.tracer.enter(span);
        let result = self.execute(action, now);
        self.tracer.exit(span);
        if let Err(e) = result {
            debug_assert!(
                recoverable(&e),
                "engine bug: unrecoverable action failure {e}"
            );
            if is_migrate {
                self.telemetry
                    .registry
                    .inc(self.telemetry.work_migrations_aborted);
            }
            self.log(now, EventKind::ActionRejected);
        }
    }

    fn execute(&mut self, action: ManagementAction, now: SimTime) -> Result<(), ClusterError> {
        match action {
            ManagementAction::Migrate { vm, to } => {
                let done = self.cluster.begin_migration(vm, to, now)?;
                self.queue.schedule(done, Event::MigrationDone(vm));
                self.telemetry
                    .registry
                    .observe(self.telemetry.migration_secs, done.since(now).as_secs_f64());
                self.log(now, EventKind::MigrationStarted { vm, to });
            }
            ManagementAction::PowerDown { host, mode } => {
                let done = self
                    .cluster
                    .begin_power_transition(host, mode.down(), now)?;
                let done = self.maybe_hang(host, mode.down(), now, done);
                self.queue.schedule(done, Event::PowerDone(host));
                self.telemetry.registry.inc(self.telemetry.power_downs);
                self.telemetry.registry.observe(
                    self.telemetry.transition_secs,
                    done.since(now).as_secs_f64(),
                );
                self.log(
                    now,
                    EventKind::PowerStarted {
                        host,
                        kind: mode.down(),
                    },
                );
            }
            ManagementAction::PowerUp { host } => {
                let kind = match self.cluster.host(host)?.power_state() {
                    PowerState::PackageIdle => power::TransitionKind::Unpark,
                    PowerState::Suspended => power::TransitionKind::Resume,
                    PowerState::Off => power::TransitionKind::Boot,
                    other => {
                        // Stale wake request (host already on or moving).
                        return Err(ClusterError::Power(power::PowerError::InvalidTransition {
                            from: other,
                            kind: power::TransitionKind::Resume,
                        }));
                    }
                };
                let done = self.cluster.begin_power_transition(host, kind, now)?;
                let done = self.maybe_hang(host, kind, now, done);
                self.queue.schedule(done, Event::PowerDone(host));
                self.telemetry.registry.inc(self.telemetry.power_ups);
                self.telemetry.registry.observe(
                    self.telemetry.transition_secs,
                    done.since(now).as_secs_f64(),
                );
                self.log(now, EventKind::PowerStarted { host, kind });
            }
        }
        Ok(())
    }

    /// Refills the reusable observation buffer from the cluster and the
    /// tick's demand update — the zero-alloc replacement for collecting
    /// fresh host/VM vectors every round. Only what changes is copied:
    /// the manager was given the host and VM specs at construction.
    ///
    /// The VM side is copied column by column: hosts from the placement
    /// map, and the demand column is the tick's own `demand_buf`,
    /// swapped in rather than re-evaluated.
    fn fill_observation(&mut self, now: SimTime, obs: &mut ClusterObservation) {
        let cluster = &self.cluster;
        obs.now = now;
        obs.hosts.clear();
        obs.hosts
            .extend(cluster.hosts().iter().map(|h| HostObservation {
                state: h.power_state(),
                pending: h.power().pending().map(|(kind, _)| kind),
                mem_committed: cluster.mem_committed_gb(h.id()),
                evacuated: cluster.is_evacuated(h.id()),
                failed_transitions: h.power().failed_transitions(),
            }));
        obs.vms.refill(
            cluster.vm_hosts(),
            &mut self.demand_buf,
            cluster
                .vm_ids()
                .map(|vm| cluster.migration_of(vm).is_some()),
        );
    }
}

/// Whether an action failure is a legitimate plan/world race rather than
/// an engine bug.
fn recoverable(e: &ClusterError) -> bool {
    !matches!(e, ClusterError::UnknownHost(_) | ClusterError::UnknownVm(_))
}

/// Round-robin initial placement with memory admission. Only VMs active
/// at the start are placed; transient VMs arrive via lifecycle events.
fn place_round_robin(cluster: &mut Cluster, lifetimes: &[Lifetime]) -> Result<(), SimError> {
    let n = cluster.num_hosts();
    let vm_ids: Vec<VmId> = cluster
        .vm_ids()
        .filter(|vm| lifetimes[vm.index()].is_active(SimTime::ZERO))
        .collect();
    let mut cursor = 0usize;
    for vm in vm_ids {
        let mut placed = false;
        for k in 0..n {
            let host = HostId(((cursor + k) % n) as u32);
            if cluster.place(vm, host).is_ok() {
                cursor = (cursor + k + 1) % n;
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(SimError::InitialPlacement { vm });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use agile_core::{ManagerConfig, PowerPolicy, VmObservation};

    /// `policy` run for `hours` on `s` by a plain `ManagerConfig::new`
    /// manager (no fleet scaling).
    fn experiment(s: &Scenario, policy: PowerPolicy, hours: u64) -> Experiment {
        Experiment::new(s.clone())
            .manager_config(ManagerConfig::new(policy))
            .horizon(SimDuration::from_hours(hours))
    }

    fn simulate(experiment: &Experiment) -> (SimReport, Cluster) {
        let sim = DatacenterSim::new(experiment, false).unwrap();
        sim.run_inner().map(|(r, c, _)| (r, c)).unwrap()
    }

    #[test]
    fn always_on_run_integrates_energy_with_every_host_on() {
        let s = Scenario::small_test(1);
        let always_on = experiment(&s, PowerPolicy::always_on(), 2);
        let (report, _) = simulate(&always_on);
        assert!(report.energy_j > 0.0);
        assert_eq!(report.policy, "AlwaysOn");
        assert_eq!(report.power_ups + report.power_downs, 0);
        // All four hosts stay on the whole time.
        assert_eq!(report.avg_hosts_on, 4.0);
    }

    #[test]
    fn suspend_policy_saves_energy_on_diurnal_load() {
        let s = Scenario::datacenter(8, 32, 3);
        let (base, _) = simulate(&experiment(&s, PowerPolicy::always_on(), 24));
        let (pm, _) = simulate(&experiment(&s, PowerPolicy::reactive_suspend(), 24));
        assert!(
            pm.savings_vs(&base) > 0.15,
            "expected >15% savings, got {:.1}% (pm {:.1} kWh vs base {:.1} kWh)",
            pm.savings_vs(&base) * 100.0,
            pm.energy_kwh(),
            base.energy_kwh()
        );
        // And it must actually have cycled hosts.
        assert!(pm.power_downs > 0);
        assert!(pm.avg_hosts_on < 8.0);
        // With low-latency states the performance impact stays small.
        assert!(
            pm.unserved_ratio < 0.02,
            "unserved ratio {}",
            pm.unserved_ratio
        );
    }

    #[test]
    fn initial_placement_fails_when_oversubscribed() {
        use cluster::{HostSpec, Resources, VmSpec};
        use power::HostPowerProfile;
        use workload::{DemandTrace, Fleet};

        let hosts = vec![HostSpec::new(
            Resources::new(4.0, 8.0),
            HostPowerProfile::prototype_rack(),
        )];
        // Three 4 GB VMs cannot fit in 8 GB.
        let vms = vec![VmSpec::new(Resources::new(1.0, 4.0)); 3];
        let traces = vec![DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.1]); 3];
        let fleet = Fleet::from_parts(vms, traces);
        let s = Scenario::new("tiny", hosts, fleet, SimDuration::from_mins(5), 1);
        let e = experiment(&s, PowerPolicy::always_on(), 1);
        let err = DatacenterSim::new(&e, false).unwrap_err();
        assert!(matches!(err, SimError::InitialPlacement { .. }));
    }

    #[test]
    fn churn_scenario_provisions_and_retires() {
        let s = Scenario::datacenter_churn(6, 36, 0.5, 4);
        let transient = s
            .fleet()
            .lifetimes()
            .lifetimes()
            .iter()
            .filter(|l| l.departure.is_some())
            .count();
        assert!(transient > 5, "want real churn, got {transient}");
        let (report, cluster) = simulate(&experiment(&s, PowerPolicy::reactive_suspend(), 24));
        assert!(report.energy_j > 0.0);
        // Departed VMs must not still be placed at the end.
        for (i, life) in s.fleet().lifetimes().lifetimes().iter().enumerate() {
            if let Some(d) = life.departure {
                if d <= SimTime::ZERO + report.horizon {
                    assert!(
                        cluster
                            .placement()
                            .host_of(cluster::VmId(i as u32))
                            .is_none(),
                        "vm{i} departed but still placed"
                    );
                }
            }
        }
        assert!(cluster.placement().check_invariants());
    }

    #[test]
    fn event_log_records_lifecycle() {
        use crate::events::EventKind;
        let s = Scenario::datacenter(4, 16, 8);
        let plain = experiment(&s, PowerPolicy::reactive_suspend(), 6);
        let (report, _) = simulate(&plain.clone().record_events());
        assert!(!report.events.is_empty());
        // Every started migration has a completion, in time order.
        let starts = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrationStarted { .. }))
            .count();
        let dones = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrationCompleted { .. }))
            .count();
        assert_eq!(starts, dones);
        assert!(report.events.windows(2).all(|w| w[0].time <= w[1].time));
        // Without enabling, the log stays empty.
        assert!(simulate(&plain).0.events.is_empty());
    }

    #[test]
    fn late_arrival_on_full_cluster_is_rejected_not_dropped() {
        use cluster::{HostSpec, Resources, VmSpec};
        use power::HostPowerProfile;
        use workload::{DemandTrace, Fleet, Lifetime, LifetimePlan};

        // One host whose memory the permanent VM fills completely; the
        // transient VM arrives in the last control interval and can never
        // be placed before the horizon.
        let hosts = vec![HostSpec::new(
            Resources::new(4.0, 8.0),
            HostPowerProfile::prototype_rack(),
        )];
        let vms = vec![
            VmSpec::new(Resources::new(1.0, 8.0)),
            VmSpec::new(Resources::new(1.0, 4.0)),
        ];
        let traces = vec![DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.1]); 2];
        // Two minutes before the one-hour horizon.
        let late = SimTime::ZERO + SimDuration::from_mins(58);
        let fleet =
            Fleet::from_parts(vms, traces).with_lifetime_plan(LifetimePlan::from_lifetimes(vec![
                Lifetime::PERMANENT,
                Lifetime {
                    arrival: late,
                    departure: None,
                },
            ]));
        let s = Scenario::new("full-house", hosts, fleet, SimDuration::from_mins(5), 1);
        let (report, _) = simulate(&experiment(&s, PowerPolicy::always_on(), 1).record_events());
        // The silent-drop bug: previously this arrival vanished without a
        // trace. Now it is a counted, logged rejection.
        assert_eq!(report.rejected_admissions, 1);
        assert_eq!(report.placement_retries, 1);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::VmArrivalRejected { vm } if vm == VmId(1))));
        assert_eq!(report.metrics.counter("sim.vm.rejected"), 1);
    }

    /// A logged day of reactive suspend on `s` under `failures`.
    fn faulty_day(s: &Scenario, failures: FailureModel) -> (SimReport, Cluster) {
        let e = experiment(s, PowerPolicy::reactive_suspend(), 24);
        simulate(&e.failure_model(failures).record_events())
    }

    #[test]
    fn migration_failures_keep_vm_on_source_and_ledger_exact() {
        let s = Scenario::datacenter(6, 24, 11);
        let mk = |p: f64| faulty_day(&s, FailureModel::none().with_migration_failures(p));
        let (report, cluster) = mk(0.3);
        assert!(
            report.migration_failures > 0,
            "a day of consolidation at p=0.3 must abort some migrations"
        );
        let failed_events = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrationFailed { .. }))
            .count() as u64;
        assert_eq!(failed_events, report.migration_failures);
        let completed_events = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrationCompleted { .. }))
            .count() as u64;
        assert_eq!(completed_events, report.migrations);
        assert!(cluster.placement().check_invariants());
        // Injection off keeps the field at zero.
        let (clean, _) = mk(0.0);
        assert_eq!(clean.migration_failures, 0);
    }

    #[test]
    fn hangs_stretch_transitions_and_always_fail() {
        let s = Scenario::datacenter(6, 24, 12);
        let (report, _) = faulty_day(&s, FailureModel::none().with_hangs(0.4, 8.0));
        assert!(report.hung_transitions > 0, "p=0.4 must hang something");
        let stuck = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PowerStuck { .. }))
            .count() as u64;
        let failed = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PowerFailed { .. }))
            .count() as u64;
        assert_eq!(stuck, report.hung_transitions);
        // Every hang ends in a failure; independent coin flips are off, so
        // hangs are the only failure source.
        assert_eq!(failed, report.hung_transitions);
        assert_eq!(report.transition_failures, failed);
    }

    #[test]
    fn rack_bursts_fail_correlated_transitions() {
        let s = Scenario::datacenter(8, 32, 13);
        let bursts = FailureModel::none().with_rack_bursts(4, 0.05, SimDuration::from_mins(30));
        let (report, _) = faulty_day(&s, bursts);
        assert!(
            report.transition_failures > 0,
            "a day of 5%-per-epoch rack bursts must catch some transitions"
        );
        let failed = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PowerFailed { .. }))
            .count() as u64;
        assert_eq!(failed, report.transition_failures);
    }

    #[test]
    fn injected_failures_are_bit_reproducible() {
        let run = || {
            let s = Scenario::datacenter_churn(6, 36, 0.5, 14);
            let failures = FailureModel::new(0.1, 0.05)
                .with_migration_failures(0.1)
                .with_hangs(0.1, 4.0)
                .with_rack_bursts(3, 0.02, SimDuration::from_mins(20));
            faulty_day(&s, failures).0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let s = Scenario::datacenter(4, 16, 9);
            simulate(&experiment(&s, PowerPolicy::reactive_suspend(), 6)).0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_scheduler_plane_is_deterministic_and_ledger_balanced() {
        let run = || {
            let s = Scenario::datacenter(8, 32, 22);
            let e = experiment(&s, PowerPolicy::reactive_suspend(), 24);
            let plane = e.schedulers(4).view_staleness(2).control_latency(1);
            simulate(&plane.record_events()).0
        };
        let a = run();
        assert_eq!(a, run());
        // The stale-view fleet still saves power...
        assert!(a.power_downs > 0, "stale schedulers must still park hosts");
        // ...and the commit ledger closes exactly.
        let m = &a.metrics;
        assert_eq!(
            m.counter("work.commit.planned"),
            m.counter("work.commit.accepted")
                + m.counter("work.commit.rejected")
                + m.counter("work.commit.dropped_unowned")
                + m.counter("work.commit.expired")
        );
        // Every store rejection surfaced as a logged event and counter.
        let rejected_events = a
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CommitRejected { .. }))
            .count() as u64;
        assert_eq!(rejected_events, m.counter("work.commit.rejected"));
        assert_eq!(rejected_events, m.counter("sim.commits.rejected"));
    }

    #[test]
    fn planner_counts_are_the_kept_actions() {
        // Four schedulers each plan the whole fleet; the report counts
        // only what each one kept. Nothing is refused at commit here, so
        // the kept actions are exactly the ones the cluster started.
        let s = Scenario::datacenter(64, 384, 7);
        let e = Experiment::new(s)
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(24))
            .schedulers(4);
        let (report, _) = simulate(&e);
        let m = &report.metrics;
        let requested = report.overload_migrations
            + report.consolidation_migrations
            + report.rebalance_migrations;
        assert_eq!(m.counter("work.commit.rejected"), 0);
        assert_eq!(requested, m.counter("sim.migrations.started"));
        assert_eq!(
            report.power_ups + report.power_downs,
            m.counter("sim.power.ups") + m.counter("sim.power.downs")
        );
        assert_eq!(
            (requested, report.power_ups + report.power_downs),
            (824, 103)
        );
        assert!(m.counter("work.commit.dropped_unowned") > 0);
    }

    /// VM `i` as a naive observer sees it at `now`: the scenario's
    /// demand trace evaluated afresh, placement and migration read off
    /// the cluster.
    fn naive_vm(sim: &DatacenterSim, s: &Scenario, i: usize, now: SimTime) -> VmObservation {
        let vm = VmId(i as u32);
        let spec = sim.cluster.vm(vm).expect("vm in range");
        VmObservation {
            host: sim.cluster.placement().host_of(vm),
            cpu_demand: if s.fleet().lifetimes().lifetimes()[i].is_active(now) {
                s.fleet().traces()[i].at(now) * spec.cpu_cap_cores()
            } else {
                0.0
            },
            migrating: sim.cluster.migration_of(vm).is_some(),
        }
    }

    #[test]
    fn observation_matches_a_naive_build_from_the_cluster() {
        // Churn plus injected faults, on a control interval short enough
        // that migrations are still in flight when the next round
        // observes: every VM the manager sees must equal the naive build
        // taken just before the tick, at the tick's time.
        let s = Scenario::datacenter_churn(8, 48, 0.5, 11);
        let e = experiment(&s, PowerPolicy::reactive_suspend(), 2)
            .control_interval(SimDuration::from_secs(5))
            .failure_model(FailureModel::new(0.2, 0.2).with_migration_failures(0.2));
        let mut sim = DatacenterSim::new(&e, false).unwrap();
        let end = SimTime::ZERO + e.horizon;
        let (mut rounds, mut inactive, mut unplaced, mut migrating) = (0, 0, 0, 0);
        while let Some((now, event)) = sim.next_event(end) {
            // Nothing between popping a control event and observing
            // moves a VM, so the cluster here is the one observed.
            let naive: Option<Vec<VmObservation>> = (event == Event::Control).then(|| {
                (0..s.fleet().len())
                    .map(|i| naive_vm(&sim, &s, i, now))
                    .collect()
            });
            sim.handle(now, event, end).unwrap();
            let Some(naive) = naive else { continue };
            let obs = &sim.obs_buf;
            assert_eq!(obs.now, now);
            assert_eq!(obs.vms.len(), naive.len());
            for (i, want) in naive.iter().enumerate() {
                assert_eq!(obs.vms.get(i).as_ref(), Some(want), "vm {i} at {now:?}");
                inactive += usize::from(!s.fleet().lifetimes().lifetimes()[i].is_active(now));
                unplaced += usize::from(want.host.is_none());
                migrating += usize::from(want.migrating);
            }
            rounds += 1;
        }
        assert_eq!(rounds, 2 * 720 + 1);
        assert!(inactive > 0, "no inactive VM was observed");
        assert!(unplaced > 0, "no unplaced VM was observed");
        assert!(migrating > 0, "no migrating VM was observed");
    }
}
