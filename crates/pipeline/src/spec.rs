//! [`ConfigSpec`] and [`JobSpec`]: the one tokenized name of a machine
//! configuration, and of a simulation job.
//!
//! The CLI's flags (`aim-sim run`/`compare`/`asm`/`submit`), the job
//! server's wire fields, and the bench specs' cell lists all name a
//! machine the same way: a Figure 4 machine class, a backend, and optional
//! overrides. Each field's token is parsed and rendered by the type it
//! names ([`MachineClass`], [`BackendChoice`], [`EnforceMode`],
//! [`LsqConfig`], the `SETSxWAYS` pair of [`TableGeometry::parse_dims`],
//! [`FarSpec`], [`SampleSpec`]). [`ConfigSpec::set`] and
//! [`ConfigSpec::tokens`] are the only places field names meet those
//! tokens, [`ConfigSpec::validate`] rejects every override a backend would
//! assert on, and [`ConfigSpec::to_config`] is the only way a spec becomes
//! a [`SimConfig`].

use aim_backend::{FilterConfig, LsqConfig, PcaxConfig, TableGeometry};
use aim_mem::{FarSpec, MemSpec};
use aim_predictor::EnforceMode;
use aim_types::wire::WireMsg;
use aim_types::{SampleSpec, Scale};

use crate::config::{BackendChoice, MachineClass, SimConfig};

/// A machine configuration, named the way the CLI and the wire name it.
/// Combined with a kernel and a scale it becomes a [`JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Figure 4 machine column.
    pub machine: MachineClass,
    /// Backend family.
    pub backend: BackendChoice,
    /// Enforcement-mode override (`None` keeps the builder default, which
    /// depends on the machine class and backend).
    pub mode: Option<EnforceMode>,
    /// LSQ capacity override (`None` keeps the builder default: 48×32, or
    /// 256×256 on the huge machine).
    pub lsq: Option<LsqConfig>,
    /// PCAX prediction-table geometry override, `(sets, ways)`.
    pub pcax: Option<(usize, usize)>,
    /// PCAX no-alias acting-threshold override.
    pub pcax_act: Option<u8>,
    /// Filtered-LSQ filter geometry override, `(sets, ways)`.
    pub filt: Option<(usize, usize)>,
    /// Filtered-LSQ counter-saturation override.
    pub filt_count: Option<u32>,
    /// Far-memory tier (`None` simulates the near-memory-only hierarchy).
    pub far: Option<FarSpec>,
    /// Sampled fast-forward execution policy (`None` runs full detail).
    pub sample: Option<SampleSpec>,
}

impl Default for ConfigSpec {
    /// The baseline machine under the paper's SFC/MDT backend.
    fn default() -> ConfigSpec {
        ConfigSpec::new(MachineClass::Baseline, BackendChoice::default())
    }
}

impl ConfigSpec {
    /// The field names as the wire spells them, in rendering order. The
    /// CLI flag for a field is `--` plus its name with `_` written `-`.
    pub const FIELDS: [&'static str; 10] = [
        "machine",
        "backend",
        "mode",
        "lsq",
        "pcax",
        "pcax_act",
        "filt",
        "filt_count",
        "far",
        "sample",
    ];

    /// A spec with every override left at the builder default.
    pub fn new(machine: MachineClass, backend: BackendChoice) -> ConfigSpec {
        ConfigSpec {
            machine,
            backend,
            mode: None,
            lsq: None,
            pcax: None,
            pcax_act: None,
            filt: None,
            filt_count: None,
            far: None,
            sample: None,
        }
    }

    /// Binds this configuration to a kernel and scale.
    pub fn job(&self, kernel: &str, scale: Scale) -> JobSpec {
        JobSpec {
            kernel: kernel.to_string(),
            scale,
            config: *self,
        }
    }

    /// Sets the field named `field` (one of [`ConfigSpec::FIELDS`]) from
    /// its token.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the field or the malformed token.
    pub fn set(&mut self, field: &str, token: &str) -> Result<(), String> {
        let dims = || {
            TableGeometry::parse_dims(token)
                .ok_or_else(|| format!("`{field}` wants SETSxWAYS, got `{token}`"))
        };
        let bad = |what: &str| format!("`{field}`: bad {what} `{token}`");
        match field {
            "machine" => self.machine = token.parse()?,
            "backend" => {
                self.backend = token.parse().map_err(|e| {
                    let all = BackendChoice::ALL.map(BackendChoice::token);
                    format!("{e} ({})", all.join("|"))
                })?;
            }
            "mode" => self.mode = Some(token.parse()?),
            "lsq" => self.lsq = Some(token.parse()?),
            "pcax" => self.pcax = Some(dims()?),
            "pcax_act" => self.pcax_act = Some(token.parse().map_err(|_| bad("pcax threshold"))?),
            "filt" => self.filt = Some(dims()?),
            "filt_count" => {
                self.filt_count = Some(token.parse().map_err(|_| bad("filter count"))?);
            }
            "far" => self.far = Some(token.parse()?),
            "sample" => self.sample = Some(token.parse()?),
            other => return Err(format!("unknown config field `{other}`")),
        }
        Ok(())
    }

    /// The spec as `(field, token)` pairs in [`ConfigSpec::FIELDS`] order:
    /// machine and backend always, each override only when set. Feeding
    /// every pair back through [`ConfigSpec::set`] rebuilds the spec.
    pub fn tokens(&self) -> Vec<(&'static str, String)> {
        let tokens = [
            Some(self.machine.to_string()),
            Some(self.backend.to_string()),
            self.mode.map(|m| m.to_string()),
            self.lsq.map(|l| l.to_string()),
            self.pcax.map(TableGeometry::dims_label),
            self.pcax_act.map(|a| a.to_string()),
            self.filt.map(TableGeometry::dims_label),
            self.filt_count.map(|c| c.to_string()),
            self.far.map(|f| f.to_string()),
            self.sample.map(|s| s.to_string()),
        ];
        ConfigSpec::FIELDS
            .into_iter()
            .zip(tokens)
            .filter_map(|(field, token)| Some((field, token?)))
            .collect()
    }

    /// Checks every override is one the backends accept, with the rules
    /// the backends themselves assert ([`LsqConfig::check`],
    /// [`TableGeometry::check`], [`PcaxConfig::check`],
    /// [`FilterConfig::check`]).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(lsq) = self.lsq {
            lsq.check()?;
        }
        if let Some(pcax) = self.pcax_config() {
            pcax.table.check("`pcax`")?;
            pcax.check().map_err(|e| format!("`pcax_act`: {e}"))?;
        }
        if let Some(filter) = self.filter_config() {
            filter.geometry().check("`filt`")?;
            filter.check().map_err(|e| format!("`filt_count`: {e}"))?;
        }
        Ok(())
    }

    /// The PCAX configuration the `pcax`/`pcax_act` overrides describe
    /// (the baseline with the given knobs replaced), if either is set.
    fn pcax_config(&self) -> Option<PcaxConfig> {
        if self.pcax.is_none() && self.pcax_act.is_none() {
            return None;
        }
        let baseline = PcaxConfig::baseline();
        let table = self
            .pcax
            .map_or(baseline.table, |(sets, ways)| TableGeometry {
                sets,
                ways,
                ..baseline.table
            });
        Some(PcaxConfig {
            table,
            no_alias_act: self.pcax_act.unwrap_or(baseline.no_alias_act),
            ..baseline
        })
    }

    /// The filter configuration the `filt`/`filt_count` overrides describe,
    /// if either is set.
    fn filter_config(&self) -> Option<FilterConfig> {
        if self.filt.is_none() && self.filt_count.is_none() {
            return None;
        }
        let baseline = FilterConfig::baseline();
        let (sets, ways) = self.filt.unwrap_or((baseline.sets, baseline.ways));
        Some(FilterConfig {
            sets,
            ways,
            max_count: self.filt_count.unwrap_or(baseline.max_count),
        })
    }

    /// Derives the exact [`SimConfig`] through the shared
    /// [`MachineBuilder`](crate::MachineBuilder).
    pub fn to_config(&self) -> SimConfig {
        let mut b = SimConfig::machine(self.machine).backend(self.backend);
        if let Some(mode) = self.mode {
            b = b.mode(mode);
        }
        if let Some(lsq) = self.lsq {
            b = b.lsq(lsq);
        }
        if let Some(pcax) = self.pcax_config() {
            b = b.pcax(pcax);
        }
        if let Some(filter) = self.filter_config() {
            b = b.filter(filter);
        }
        if let Some(far) = self.far {
            b = b.mem(MemSpec::figure4().with_far(far));
        }
        if let Some(sample) = self.sample {
            b = b.sample(sample);
        }
        b.build()
    }
}

/// One simulation request: a kernel, a scale, and a [`ConfigSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (must exist in the `aim-workloads` registry).
    pub kernel: String,
    /// Workload scale.
    pub scale: Scale,
    /// The machine configuration.
    pub config: ConfigSpec,
}

impl JobSpec {
    /// Encodes this spec (and its flags) as the job server's `op: "sim"`
    /// request: one field per [`ConfigSpec::tokens`] pair, the two integer
    /// knobs as JSON numbers.
    pub fn to_wire(&self, verify: bool, no_cache: bool) -> WireMsg {
        let mut msg = WireMsg::new();
        msg.put_str("op", "sim")
            .put_str("kernel", &self.kernel)
            .put_str("scale", self.scale.token());
        for (field, token) in self.config.tokens() {
            match (field, token.parse()) {
                ("pcax_act" | "filt_count", Ok(n)) => msg.put_u64(field, n),
                _ => msg.put_str(field, &token),
            };
        }
        if verify {
            msg.put_bool("verify", true);
        }
        if no_cache {
            msg.put_bool("no_cache", true);
        }
        msg
    }

    /// The request fields an `op: "sim"` message may carry besides
    /// [`ConfigSpec::FIELDS`].
    const REQUEST_FIELDS: [&'static str; 5] = ["op", "kernel", "scale", "verify", "no_cache"];

    /// Decodes and validates an `op: "sim"` request.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for a missing, malformed, rejected or
    /// unknown field.
    pub fn from_wire(msg: &WireMsg) -> Result<JobSpec, String> {
        if let Some(field) = msg
            .keys()
            .find(|k| !Self::REQUEST_FIELDS.contains(k) && !ConfigSpec::FIELDS.contains(k))
        {
            return Err(format!("sim request has an unknown field `{field}`"));
        }
        let token = |key: &str| {
            msg.str_field(key)
                .map(str::to_string)
                .or_else(|| msg.u64_field(key).map(|n| n.to_string()))
        };
        let required = |key: &str| {
            token(key).ok_or_else(|| format!("sim request is missing the `{key}` field"))
        };
        required("backend")?;
        required("machine")?;
        let mut config = ConfigSpec::default();
        for field in ConfigSpec::FIELDS {
            if let Some(token) = token(field) {
                config.set(field, &token)?;
            }
        }
        config.validate()?;
        Ok(JobSpec {
            kernel: required("kernel")?,
            scale: required("scale")?.parse()?,
            config,
        })
    }
}
