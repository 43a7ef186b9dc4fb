//! `audit_fleet`: the read-only audit path over `sim_fleet` inputs.
//!
//! Each pass reconciles the eight observer streams, replays the fused
//! stream through the streaming auditor and takes its exact verdict, then
//! runs the batch snapshot audit over the same fused stream. There is no
//! simulation in a pass, so reconcile, the pair-scan kernels and the audit
//! detectors carry all of its time.

use crate::inputs::target_blocks;
use crate::sim_fleet;
use crate::trace::Trace;
use crate::{Pass, Record, Workload};
use cn_chain::Chain;
use cn_core::self_interest::find_self_interest_transactions;
use cn_core::streaming::{interleave, StreamEvent, StreamingAuditor, StreamingConfig};
use cn_core::{
    attribute, audit_attributed, audit_with_snapshots, reconcile_with_pool, AuditConfig,
    AuditError, AuditReport, ChainIndex, FleetView, ObserverView, SnapshotCoverage,
    StreamExpectation,
};
use cn_mempool::MempoolSnapshot;
use cn_sim::scenario::Scenario;
use cn_stats::Pool;
use std::time::Instant;

/// One pre-simulated fleet run and the report its warm-up pass produced.
struct Input {
    scenario: Scenario,
    chain: Chain,
    index: ChainIndex,
    views: Vec<ObserverView>,
    fused_snapshots: usize,
    expected: Option<AuditReport>,
}

#[derive(Default)]
pub struct AuditFleet {
    inputs: Vec<Input>,
}

/// `audit_with_snapshots`, spelled out call by call so that each stage
/// gets its own span. Returns the same report.
fn audit_in_stages(
    chain: &Chain,
    index: &ChainIndex,
    snapshots: &[MempoolSnapshot],
    expectation: StreamExpectation,
    trace: &mut Trace,
) -> Result<AuditReport, AuditError> {
    if snapshots.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    let coverage = trace.span("core.coverage", || {
        SnapshotCoverage::assess(snapshots, expectation.windows, expectation.detailed)
            .with_chain(snapshots, index)
    });
    let confidence = coverage.confidence();
    if confidence < expectation.min_coverage {
        return Err(AuditError::InsufficientCoverage {
            coverage: confidence,
            required: expectation.min_coverage,
        });
    }
    let attribution = trace.span("core.attribute", || attribute(index));
    let self_map = trace.span("core.self_interest", || {
        find_self_interest_transactions(chain, &attribution)
    });
    let mut report = trace.span("core.audit_attributed", || {
        audit_attributed(index, attribution, &self_map, AuditConfig::default())
    });
    report.coverage = Some(coverage);
    Ok(report)
}

/// A pass's two reports, plus the state it built, so that freeing that
/// state happens after the pass is timed.
struct Audited {
    streamed: AuditReport,
    batch: AuditReport,
    _state: (FleetView, StreamingAuditor),
}

impl Input {
    /// One pass of the audit path. Untraced, its per-block ingest and
    /// verdict latencies go to `record`.
    fn audit(&mut self, trace: &mut Trace, record: &mut Record) -> Result<Audited, AuditError> {
        let fleet = trace.span("core.reconcile", || {
            reconcile_with_pool(&self.views, Pool::with_workers(1))
        })?;
        let events = interleave(self.chain.blocks(), &fleet.fused);
        let mut auditor = StreamingAuditor::new(
            self.chain.initial_utxos(),
            StreamingConfig::new(fleet.expectation),
        )
        .with_workers(1);
        for event in &events {
            match event {
                StreamEvent::Block(_) => {
                    let started = Instant::now();
                    let span = trace.open("core.stream_block");
                    let pushed = auditor.push_event(event);
                    trace.close(span);
                    // A traced push also pays for its span.
                    if !trace.enabled() {
                        record.ingest_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                    pushed?;
                }
                StreamEvent::Snapshot(_) => {
                    trace.span("core.stream_snapshot", || auditor.push_event(event))?;
                }
            }
        }
        let started = Instant::now();
        let streamed = trace.span("core.verdict", || auditor.verdict())?;
        if !trace.enabled() {
            record
                .verdict_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        let batch = if trace.enabled() {
            audit_in_stages(
                &self.chain,
                &self.index,
                &fleet.fused,
                fleet.expectation,
                trace,
            )?
        } else {
            audit_with_snapshots(
                &self.chain,
                &self.index,
                &fleet.fused,
                fleet.expectation,
                AuditConfig::default(),
            )?
        };
        let counters = auditor.counters();
        record.count("core.rows_processed", counters.rows_processed as f64);
        record.count("core.peak_window_rows", counters.peak_window_rows as f64);
        self.fused_snapshots = fleet.fused.len();
        drop(events);
        Ok(Audited {
            streamed,
            batch,
            _state: (fleet, auditor),
        })
    }
}

impl Workload for AuditFleet {
    const POOL: &'static [u64] = sim_fleet::POOL;

    fn scenario(seed: u64) -> Scenario {
        sim_fleet::scenario(seed)
    }

    fn add_input(&mut self, scenario: Scenario) -> Result<(), String> {
        let (out, index) = sim_fleet::simulate(&scenario, &mut Trace::new(false));
        let expectation = StreamExpectation::from_run(
            scenario.duration,
            scenario.snapshot_interval,
            scenario.snapshot_detail_every,
        );
        let views = scenario
            .observers
            .iter()
            .zip(out.observer_streams)
            .map(|(cfg, snapshots)| ObserverView {
                label: cfg.label.clone(),
                snapshots,
                expectation,
            })
            .collect();
        let mut input = Input {
            scenario,
            chain: out.chain,
            index,
            views,
            fused_snapshots: 0,
            expected: None,
        };
        let warm = input.audit(&mut Trace::new(false), &mut Record::default());
        let checked = match warm {
            Ok(a) if a.streamed == a.batch => {
                input.expected = Some(a.batch);
                Ok(())
            }
            Ok(_) => Err("streaming verdict differs from audit_with_snapshots".into()),
            Err(e) => Err(format!("warm-up audit failed: {e}")),
        };
        self.inputs.push(input);
        checked
    }

    fn describe(&self) -> String {
        self.inputs
            .iter()
            .map(|i| {
                format!(
                    "input seed {}: dataset-C quick, {} observer streams fused into {} snapshots, \
                     {} blocks mined of {} targeted\n",
                    i.scenario.seed,
                    i.views.len(),
                    i.fused_snapshots,
                    i.chain.height(),
                    target_blocks(&i.scenario),
                )
            })
            .collect()
    }

    fn pass(&mut self, input: usize, trace: &mut Trace, record: &mut Record) -> Pass {
        let input = &mut self.inputs[input];
        let timer = trace.begin_pass();
        let audited = input.audit(trace, record);
        let seconds = trace.end_pass(timer);
        let ok = audited
            .is_ok_and(|a| a.streamed == a.batch && input.expected.as_ref() == Some(&a.batch));
        Pass {
            seconds,
            blocks: input.chain.height(),
            ok,
        }
    }
}
