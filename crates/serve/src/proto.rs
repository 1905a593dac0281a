//! The job protocol: what a client may ask and what the server answers.
//!
//! A request is one flat [`WireMsg`] with an `op` field:
//!
//! * `op: "sim"` — simulate (or recall) one `(kernel, config, scale)`
//!   cell. Carries a [`JobSpec`](aim_pipeline::JobSpec) plus the `verify` /
//!   `no_cache` flags.
//! * `op: "stats"` — return the server's lifetime counters.
//! * `op: "shutdown"` — acknowledge and stop accepting connections.
//!
//! A [`JobSpec`](aim_pipeline::JobSpec) and its
//! [`ConfigSpec`](aim_pipeline::ConfigSpec) live in
//! `aim-pipeline`, beside the builder they derive a
//! [`SimConfig`](aim_pipeline::SimConfig) through, so the wire names a
//! configuration with exactly the tokens the CLI's flags and the bench
//! specs use; this module holds the server's side of the exchange.

use aim_types::wire::WireMsg;

/// Where a response's statistics came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Freshly simulated by this request.
    Sim,
    /// Recalled from the on-disk cache; no simulation ran.
    Cache,
    /// Folded onto another request's in-flight simulation (single-flight).
    Dedup,
}

impl Source {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            Source::Sim => "sim",
            Source::Cache => "cache",
            Source::Dedup => "dedup",
        }
    }
}

/// The outcome of a `verify: true` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Nothing was cached; the recomputation seeded the entry.
    Cold,
    /// The recomputation matched the cached bytes exactly.
    Match,
    /// The recomputation diverged; the entry was replaced.
    Mismatch,
}

impl VerifyOutcome {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            VerifyOutcome::Cold => "cold",
            VerifyOutcome::Match => "match",
            VerifyOutcome::Mismatch => "mismatch",
        }
    }
}

/// The answer to one `op: "sim"` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// The cell's content address, in hex.
    pub key: String,
    /// Where the statistics came from.
    pub source: Source,
    /// Simulated cycles (the headline the CLI prints without parsing the
    /// statistics text).
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// FNV-1a fingerprint of the canonical statistics text
    /// ([`aim_bench::fingerprint_text`]).
    pub fingerprint: u64,
    /// The canonical statistics text itself (the `Debug` rendering with
    /// the host clock zeroed) — what byte-identity checks compare.
    pub stats_text: String,
    /// Verify outcome, when the request asked for verification.
    pub verify: Option<VerifyOutcome>,
}

impl JobResponse {
    /// Encodes the response.
    pub fn to_wire(&self) -> WireMsg {
        let mut msg = WireMsg::new();
        msg.put_bool("ok", true)
            .put_str("key", &self.key)
            .put_str("source", self.source.token())
            .put_u64("cycles", self.cycles)
            .put_u64("retired", self.retired)
            .put_str("fingerprint", &format!("{:#018x}", self.fingerprint))
            .put_str("stats", &self.stats_text);
        if let Some(v) = self.verify {
            msg.put_str("verify", v.token());
        }
        msg
    }

    /// Decodes a response; a server-side failure (`ok: false`) surfaces as
    /// the `err` field's message.
    ///
    /// # Errors
    ///
    /// Returns the server's error message, or a one-line description of a
    /// malformed response.
    pub fn from_wire(msg: &WireMsg) -> Result<JobResponse, String> {
        if msg.bool_field("ok") != Some(true) {
            return Err(msg
                .str_field("err")
                .unwrap_or("malformed response")
                .to_string());
        }
        let field = |key: &str| {
            msg.str_field(key)
                .ok_or_else(|| format!("response is missing the `{key}` field"))
        };
        let source = match field("source")? {
            "sim" => Source::Sim,
            "cache" => Source::Cache,
            "dedup" => Source::Dedup,
            other => return Err(format!("unknown source `{other}`")),
        };
        let verify = match msg.str_field("verify") {
            None => None,
            Some("cold") => Some(VerifyOutcome::Cold),
            Some("match") => Some(VerifyOutcome::Match),
            Some("mismatch") => Some(VerifyOutcome::Mismatch),
            Some(other) => return Err(format!("unknown verify outcome `{other}`")),
        };
        let fingerprint = field("fingerprint")?;
        let fingerprint = fingerprint
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad fingerprint `{fingerprint}`"))?;
        Ok(JobResponse {
            key: field("key")?.to_string(),
            source,
            cycles: msg
                .u64_field("cycles")
                .ok_or("response is missing `cycles`")?,
            retired: msg
                .u64_field("retired")
                .ok_or("response is missing `retired`")?,
            fingerprint,
            stats_text: field("stats")?.to_string(),
            verify,
        })
    }
}

/// Encodes a server-side failure.
pub(crate) fn error_reply(message: &str) -> WireMsg {
    let mut msg = WireMsg::new();
    msg.put_bool("ok", false).put_str("err", message);
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_lsq::LsqConfig;
    use aim_pipeline::{
        BackendChoice, ConfigSpec, FarSpec, JobSpec, MachineClass, MemSpec, PcaxConfig, SampleSpec,
        SimConfig, TableGeometry,
    };
    use aim_predictor::EnforceMode;
    use aim_workloads::Scale;

    fn spec() -> JobSpec {
        JobSpec {
            kernel: "gzip".to_string(),
            scale: Scale::Tiny,
            config: ConfigSpec {
                lsq: Some(LsqConfig::aggressive_120x80()),
                ..ConfigSpec::new(MachineClass::Aggressive, BackendChoice::Lsq)
            },
        }
    }

    #[test]
    fn specs_round_trip_through_the_wire() {
        let s = spec();
        let msg = s.to_wire(true, false);
        assert_eq!(msg.str_field("op"), Some("sim"));
        assert_eq!(msg.bool_field("verify"), Some(true));
        assert_eq!(msg.bool_field("no_cache"), None);
        let back = JobSpec::from_wire(&WireMsg::parse(&msg.to_json()).unwrap()).unwrap();
        assert_eq!(back, s);

        let with_mode = ConfigSpec {
            mode: Some(EnforceMode::All),
            ..ConfigSpec::new(MachineClass::Baseline, BackendChoice::SfcMdt)
        }
        .job("mcf", Scale::Small);
        let back = JobSpec::from_wire(&with_mode.to_wire(false, true)).unwrap();
        assert_eq!(back, with_mode);
    }

    #[test]
    fn geometry_overrides_round_trip_through_the_wire() {
        let full = ConfigSpec {
            mode: Some(EnforceMode::TotalOrder),
            lsq: Some(LsqConfig::aggressive_256x256()),
            pcax: Some((256, 1)),
            pcax_act: Some(3),
            filt: Some((512, 4)),
            filt_count: Some(31),
            far: Some(FarSpec::new(400, 64, 8)),
            sample: SampleSpec::new(2_000, 500, 10),
            ..ConfigSpec::new(MachineClass::Huge, BackendChoice::Pcax)
        }
        .job("swim", Scale::Tiny);
        let msg = full.to_wire(false, false);
        assert_eq!(msg.str_field("machine"), Some("huge"));
        assert_eq!(msg.str_field("pcax"), Some("256x1"));
        assert_eq!(msg.u64_field("pcax_act"), Some(3));
        assert_eq!(msg.str_field("filt"), Some("512x4"));
        assert_eq!(msg.u64_field("filt_count"), Some(31));
        assert_eq!(msg.str_field("far"), Some("400x64x8"));
        assert_eq!(msg.str_field("sample"), Some("2000x500x10"));
        let back = JobSpec::from_wire(&WireMsg::parse(&msg.to_json()).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn geometry_decode_errors_name_the_problem() {
        let base = |k: &str, v: &str| {
            let mut msg = WireMsg::new();
            msg.put_str("op", "sim")
                .put_str("kernel", "gzip")
                .put_str("scale", "tiny")
                .put_str("machine", "huge")
                .put_str("backend", "pcax")
                .put_str(k, v);
            msg
        };
        let err = JobSpec::from_wire(&base("pcax", "256")).unwrap_err();
        assert!(err.contains("SETSxWAYS"), "{err}");
        let err = JobSpec::from_wire(&base("far", "400x0x8")).unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let err = JobSpec::from_wire(&base("far", "400x64")).unwrap_err();
        assert!(err.contains("LATENCYxMSHRSxBATCH"), "{err}");
        let err = JobSpec::from_wire(&base("sample", "2000x0x10")).unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let err = JobSpec::from_wire(&base("sample", "2000x500")).unwrap_err();
        assert!(err.contains("WARMxDETAILxPERIODS"), "{err}");
        let mut act = base("pcax", "256x1");
        act.put_u64("pcax_act", 700);
        let err = JobSpec::from_wire(&act).unwrap_err();
        assert!(err.contains("pcax_act"), "{err}");
    }

    #[test]
    fn spec_decode_errors_name_the_problem() {
        let mut missing = WireMsg::new();
        missing.put_str("op", "sim").put_str("kernel", "gzip");
        let err = JobSpec::from_wire(&missing).unwrap_err();
        assert!(err.contains("missing") && err.contains("backend"), "{err}");

        let mut bad = WireMsg::new();
        bad.put_str("op", "sim")
            .put_str("kernel", "gzip")
            .put_str("scale", "tiny")
            .put_str("machine", "baseline")
            .put_str("backend", "lsq")
            .put_str("lsq", "0x32");
        assert!(JobSpec::from_wire(&bad).unwrap_err().contains("0x32"));

        let typo = WireMsg::parse(
            r#"{"op":"sim","kernel":"gzip","scale":"tiny","machine":"baseline","backend":"lsq","lsqq":"0x0"}"#,
        )
        .unwrap();
        let err = JobSpec::from_wire(&typo).unwrap_err();
        assert_eq!(err, "sim request has an unknown field `lsqq`");
    }

    #[test]
    fn every_matrix_cell_round_trips_through_the_wire() {
        let cells = aim_bench::specs::hostperf_configs()
            .into_iter()
            .chain(aim_bench::specs::farmem_configs());
        for (name, config) in cells {
            let job = config.job("gzip", Scale::Tiny);
            for (verify, no_cache) in [(false, false), (true, true)] {
                let msg = WireMsg::parse(&job.to_wire(verify, no_cache).to_json()).unwrap();
                assert_eq!(JobSpec::from_wire(&msg).as_ref(), Ok(&job), "{name}");
            }
        }
    }

    #[test]
    fn responses_round_trip_including_verify() {
        let resp = JobResponse {
            key: "ab".repeat(16),
            source: Source::Cache,
            cycles: 123,
            retired: 456,
            fingerprint: 0xdead_beef,
            stats_text: "SimStats { cycles: 123 }".to_string(),
            verify: Some(VerifyOutcome::Match),
        };
        let back =
            JobResponse::from_wire(&WireMsg::parse(&resp.to_wire().to_json()).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_replies_decode_to_their_message() {
        let err = JobResponse::from_wire(&error_reply("no such kernel `zip9`")).unwrap_err();
        assert_eq!(err, "no such kernel `zip9`");
    }

    #[test]
    fn config_spec_builds_through_the_shared_builder() {
        let cfg = spec().config.to_config();
        let expected = SimConfig::machine(MachineClass::Aggressive)
            .backend(BackendChoice::Lsq)
            .lsq(LsqConfig::aggressive_120x80())
            .build();
        assert_eq!(format!("{cfg:?}"), format!("{expected:?}"));
    }

    #[test]
    fn geometry_overrides_build_like_the_cli() {
        let spec = ConfigSpec {
            pcax: Some((256, 1)),
            pcax_act: Some(3),
            far: Some(FarSpec::new(200, 32, 4)),
            sample: SampleSpec::new(4_000, 1_000, 8),
            ..ConfigSpec::new(MachineClass::Huge, BackendChoice::Pcax)
        };
        let cfg = spec.to_config();
        let expected = SimConfig::machine(MachineClass::Huge)
            .backend(BackendChoice::Pcax)
            .pcax(PcaxConfig {
                table: TableGeometry {
                    sets: 256,
                    ways: 1,
                    ..PcaxConfig::baseline().table
                },
                no_alias_act: 3,
                ..PcaxConfig::baseline()
            })
            .mem(MemSpec::figure4().with_far(FarSpec::new(200, 32, 4)))
            .sample(SampleSpec::new(4_000, 1_000, 8).unwrap())
            .build();
        assert_eq!(format!("{cfg:?}"), format!("{expected:?}"));
        // A far-less spec still renders the legacy hierarchy text, so its
        // cache keys stay byte-compatible with the pre-far-tier server.
        let legacy = ConfigSpec::new(MachineClass::Baseline, BackendChoice::Lsq).to_config();
        assert!(format!("{legacy:?}").contains("HierarchyConfig {"));
    }
}
