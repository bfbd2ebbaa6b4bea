//! The unified engine-configuration surface: one typed [`EngineConfig`]
//! built through one [`EngineConfigBuilder`], with every externally
//! spellable option defined exactly once in [`KEYS`].
//!
//! Before this module the option surface had accreted: `packed` lived on
//! `MasparOptions`, `eval`/`filter` on `ParseOptions`, `threads` on
//! `ParseRequest`, and the serve wire protocol grew its own
//! `k=v` decoder — so adding a key meant touching three parsers that
//! could (and did) drift. Now the CLI flag parser, the serve wire
//! decoder, and programmatic callers all construct through the same
//! table: each [`KeyDef`] pairs the parse function with its encoder, so
//! `parse(encode(config)) == config` holds by construction (see the
//! round-trip property test in `tests/config_roundtrip.rs`).
//!
//! Budget and fault specs are kept *verbatim* alongside their parsed
//! forms: [`FaultPlan`] is intentionally opaque (no spec renderer) and
//! the response cache keys on the literal budget spec, so the round-trip
//! carries the spelling, not a re-rendering.

use crate::error::ParseBudget;
use crate::network::{EvalStrategy, FilterStrategy};
use maspar_sim::{FaultPlan, MachineConfig};
use std::fmt;
use std::time::Duration;

/// Fault-injection horizon: how many simulated machine operations a
/// seeded [`FaultPlan`] spreads its faults across. Shared by the CLI and
/// the serve wire decoder (it used to be duplicated in both).
pub const FAULT_HORIZON_OPS: u64 = 2_000;

/// Service classes, ordered by urgency. Lives here (not in
/// `parsec-serve`) so the `class=` key parses through the same table as
/// every other config key; the serve crate re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloClass {
    /// Tight wall budget (≤ 50 ms): shed last, expire fastest.
    Interactive,
    /// Some budget declared: default service.
    Standard,
    /// No budget at all: shed first, generous queue allowance.
    Batch,
}

impl SloClass {
    /// Derive the class from the request's declared budget.
    pub fn from_budget(budget: &ParseBudget) -> Self {
        match budget.max_wall_time {
            Some(wall) if wall <= Duration::from_millis(50) => SloClass::Interactive,
            Some(_) => SloClass::Standard,
            None if !budget.is_unlimited() => SloClass::Standard,
            None => SloClass::Batch,
        }
    }

    /// How long a request of this class may wait in the queue before a
    /// worker treats it as expired.
    pub fn queue_allowance(self) -> Duration {
        match self {
            SloClass::Interactive => Duration::from_millis(50),
            SloClass::Standard => Duration::from_millis(500),
            SloClass::Batch => Duration::from_secs(5),
        }
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Parse the wire name (`class=` request option).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "interactive" => Ok(SloClass::Interactive),
            "standard" => Ok(SloClass::Standard),
            "batch" => Ok(SloClass::Batch),
            other => Err(format!("unknown SLO class `{other}`")),
        }
    }
}

/// A config error with enough structure for every front-end to render
/// its own spelling of it (CLI usage error, wire `ERR cause=unknown-key`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The key is not in [`KEYS`] at all.
    UnknownKey { key: String },
    /// The key exists but the value failed its parser.
    InvalidValue { key: &'static str, detail: String },
    /// Cross-field validation at [`EngineConfigBuilder::build`] failed.
    Conflict { detail: String },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownKey { key } => write!(f, "unknown config key `{key}`"),
            ConfigError::InvalidValue { key, detail } => {
                write!(f, "invalid value for `{key}`: {detail}")
            }
            ConfigError::Conflict { detail } => write!(f, "conflicting config: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The one typed options surface. Construct with [`EngineConfig::builder`];
/// the struct is `#[non_exhaustive]` so new keys never break callers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Engine name (`serial` / `pram` / `maspar`), or `None` to use the
    /// caller's default. Validated by the front-end that owns the engine
    /// registry, not here.
    pub engine: Option<String>,
    /// Parsed budget. Always consistent with `budget_spec`.
    pub budget: ParseBudget,
    /// The budget spec exactly as the caller spelled it (cache identity
    /// and round-trip carrier). Empty means unlimited.
    pub budget_spec: String,
    /// Explicit SLO class override (otherwise derived from the budget).
    pub class: Option<SloClass>,
    /// Parsed fault plan. Always consistent with `faults_spec`.
    pub faults: Option<FaultPlan>,
    /// The fault spec exactly as the caller spelled it.
    pub faults_spec: Option<String>,
    /// Treat the first K injected faults as transient (serve retry knob).
    pub transient: Option<usize>,
    /// Parse-enumeration cap.
    pub max_parses: usize,
    /// Consistency-filter implementation.
    pub filter: FilterStrategy,
    /// Constraint-evaluation strategy.
    pub eval: EvalStrategy,
    /// Worker-pool width for the host-parallel engines.
    pub threads: Option<usize>,
    /// Bit-packed simulated execution (`false` = scalar oracle).
    pub packed: bool,
}

/// Default parse-enumeration cap (the CLI's and the wire's default).
pub const DEFAULT_MAX_PARSES: usize = 4;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            engine: None,
            budget: ParseBudget::UNLIMITED,
            budget_spec: String::new(),
            class: None,
            faults: None,
            faults_spec: None,
            transient: None,
            max_parses: DEFAULT_MAX_PARSES,
            filter: FilterStrategy::Auto,
            eval: EvalStrategy::Kernel,
            threads: None,
            packed: true,
        }
    }
}

impl EngineConfig {
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::new()
    }

    /// Encode as canonical wire `k=v` pairs (non-default keys only, table
    /// order). `parse` of the result reproduces this config exactly.
    pub fn encode_pairs(&self) -> Vec<(&'static str, String)> {
        KEYS.iter()
            .filter_map(|def| (def.encode)(self).map(|v| (def.key, v)))
            .collect()
    }

    /// Encode as one space-separated `k=v` string (the wire spelling).
    pub fn encode(&self) -> String {
        self.encode_pairs()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parse a space-separated `k=v` string through the shared table.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut b = EngineConfig::builder();
        for token in spec.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| ConfigError::Conflict {
                detail: format!("`{token}` is not key=value"),
            })?;
            b.set(key, value)?;
        }
        b.build()
    }

    /// The `ParseOptions` this config induces (everything the serial /
    /// PRAM pipelines read).
    pub fn parse_options(&self) -> crate::parser::ParseOptions {
        crate::parser::ParseOptions {
            budget: self.budget,
            eval: self.eval,
            filter_strategy: self.filter,
            ..crate::parser::ParseOptions::default()
        }
    }

    /// Engine name with the caller's default applied.
    pub fn engine_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.engine.as_deref().unwrap_or(default)
    }
}

/// One externally spellable config key: its wire/CLI name, value parser,
/// and canonical encoder (`None` = default value, omit on encode).
pub struct KeyDef {
    pub key: &'static str,
    /// One-line value syntax, for usage/error messages.
    pub help: &'static str,
    apply: fn(&mut EngineConfigBuilder, &str) -> Result<(), ConfigError>,
    encode: fn(&EngineConfig) -> Option<String>,
}

fn invalid(key: &'static str, detail: impl fmt::Display) -> ConfigError {
    ConfigError::InvalidValue {
        key,
        detail: detail.to_string(),
    }
}

/// The single shared parse table. Every config key a user can spell — as
/// a CLI flag, a wire `k=v` pair, or a builder call — resolves here.
pub static KEYS: &[KeyDef] = &[
    KeyDef {
        key: "engine",
        help: "serial | pram | maspar",
        apply: |b, v| {
            b.engine = Some(v.to_string());
            Ok(())
        },
        encode: |c| c.engine.clone(),
    },
    KeyDef {
        key: "budget",
        help: "comma-separated ms=N,iters=N,cells=N",
        apply: |b, v| {
            // Parse eagerly so errors surface at the offending key, but
            // keep the verbatim spelling (cache identity).
            ParseBudget::parse_spec(v).map_err(|e| invalid("budget", e))?;
            b.budget_spec = Some(v.to_string());
            Ok(())
        },
        encode: |c| (!c.budget_spec.is_empty()).then(|| c.budget_spec.clone()),
    },
    KeyDef {
        key: "class",
        help: "interactive | standard | batch",
        apply: |b, v| {
            b.class = Some(SloClass::parse(v).map_err(|e| invalid("class", e))?);
            Ok(())
        },
        encode: |c| c.class.map(|cl| cl.name().to_string()),
    },
    KeyDef {
        key: "faults",
        help: "seed N, or dead=P / router=op:phys:v / flip=op:phys:bit clauses",
        apply: |b, v| {
            b.faults_spec = Some(v.to_string());
            Ok(())
        },
        encode: |c| c.faults_spec.clone(),
    },
    KeyDef {
        key: "transient",
        help: "treat the first K faults as transient",
        apply: |b, v| {
            b.transient = Some(
                v.parse()
                    .map_err(|_| invalid("transient", "not a number"))?,
            );
            Ok(())
        },
        encode: |c| c.transient.map(|k| k.to_string()),
    },
    KeyDef {
        key: "parses",
        help: "parse-enumeration cap (>= 1)",
        apply: |b, v| {
            b.max_parses = Some(v.parse().map_err(|_| invalid("parses", "not a number"))?);
            Ok(())
        },
        encode: |c| (c.max_parses != DEFAULT_MAX_PARSES).then(|| c.max_parses.to_string()),
    },
    KeyDef {
        key: "filter",
        help: "auto | naive | incremental | bmm",
        apply: |b, v| {
            b.filter = Some(FilterStrategy::parse(v).map_err(|e| invalid("filter", e))?);
            Ok(())
        },
        encode: |c| (c.filter != FilterStrategy::Auto).then(|| c.filter.name().to_string()),
    },
    KeyDef {
        key: "eval",
        help: "kernel | naive",
        apply: |b, v| {
            b.eval = Some(match v {
                "kernel" => EvalStrategy::Kernel,
                "naive" => EvalStrategy::Naive,
                other => return Err(invalid("eval", format!("unknown eval strategy `{other}`"))),
            });
            Ok(())
        },
        encode: |c| (c.eval == EvalStrategy::Naive).then(|| "naive".to_string()),
    },
    KeyDef {
        key: "threads",
        help: "host worker threads (>= 1)",
        apply: |b, v| {
            b.threads = Some(v.parse().map_err(|_| invalid("threads", "not a number"))?);
            Ok(())
        },
        encode: |c| c.threads.map(|t| t.to_string()),
    },
    KeyDef {
        key: "packed",
        help: "true | false (false = scalar differential oracle)",
        apply: |b, v| {
            b.packed = Some(match v {
                "true" => true,
                "false" => false,
                other => return Err(invalid("packed", format!("`{other}` is not true/false"))),
            });
            Ok(())
        },
        encode: |c| (!c.packed).then(|| "false".to_string()),
    },
];

/// Look up a key definition by wire/CLI name.
pub fn key_def(key: &str) -> Option<&'static KeyDef> {
    KEYS.iter().find(|d| d.key == key)
}

/// Builder for [`EngineConfig`]. `set(key, value)` is the table-driven
/// entry every textual front-end uses; the typed methods are for
/// programmatic callers. Validation happens at [`build`](Self::build).
#[must_use = "call .build() to obtain the EngineConfig"]
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    engine: Option<String>,
    budget_spec: Option<String>,
    class: Option<SloClass>,
    faults_spec: Option<String>,
    transient: Option<usize>,
    max_parses: Option<usize>,
    filter: Option<FilterStrategy>,
    eval: Option<EvalStrategy>,
    threads: Option<usize>,
    packed: Option<bool>,
    fault_context: Option<(usize, u64)>,
}

impl EngineConfigBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one key from its textual spelling via the shared table.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        let def = key_def(key).ok_or_else(|| ConfigError::UnknownKey {
            key: key.to_string(),
        })?;
        (def.apply)(self, value)
    }

    /// The machine context fault specs parse against (physical PE count
    /// and fault horizon). Defaults to the full MP-1 and
    /// [`FAULT_HORIZON_OPS`].
    pub fn fault_context(mut self, phys_pes: usize, horizon_ops: u64) -> Self {
        self.fault_context = Some((phys_pes, horizon_ops));
        self
    }

    pub fn engine(mut self, name: impl Into<String>) -> Self {
        self.engine = Some(name.into());
        self
    }

    pub fn budget_spec(mut self, spec: impl Into<String>) -> Self {
        self.budget_spec = Some(spec.into());
        self
    }

    pub fn class(mut self, class: SloClass) -> Self {
        self.class = Some(class);
        self
    }

    pub fn faults_spec(mut self, spec: impl Into<String>) -> Self {
        self.faults_spec = Some(spec.into());
        self
    }

    pub fn transient(mut self, k: usize) -> Self {
        self.transient = Some(k);
        self
    }

    pub fn max_parses(mut self, n: usize) -> Self {
        self.max_parses = Some(n);
        self
    }

    pub fn filter(mut self, f: FilterStrategy) -> Self {
        self.filter = Some(f);
        self
    }

    pub fn eval(mut self, e: EvalStrategy) -> Self {
        self.eval = Some(e);
        self
    }

    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    pub fn packed(mut self, packed: bool) -> Self {
        self.packed = Some(packed);
        self
    }

    /// Validate and build. Typed errors, never panics.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let budget_spec = self.budget_spec.unwrap_or_default();
        let budget = ParseBudget::parse_spec(&budget_spec).map_err(|e| invalid("budget", e))?;
        let (phys_pes, horizon) = self
            .fault_context
            .unwrap_or((MachineConfig::default().phys_pes, FAULT_HORIZON_OPS));
        let faults = match &self.faults_spec {
            Some(spec) => Some(
                FaultPlan::parse_spec(spec, phys_pes, horizon).map_err(|e| invalid("faults", e))?,
            ),
            None => None,
        };
        let max_parses = self.max_parses.unwrap_or(DEFAULT_MAX_PARSES);
        if max_parses == 0 {
            return Err(invalid("parses", "must be at least 1"));
        }
        if self.threads == Some(0) {
            return Err(invalid("threads", "must be at least 1"));
        }
        if faults.is_some() {
            if let Some(engine) = self.engine.as_deref() {
                if engine != "maspar" {
                    return Err(ConfigError::Conflict {
                        detail: format!("faults require the maspar engine (got engine={engine})"),
                    });
                }
            }
        }
        Ok(EngineConfig {
            engine: self.engine,
            budget,
            budget_spec,
            class: self.class,
            faults,
            faults_spec: self.faults_spec,
            transient: self.transient,
            max_parses,
            filter: self.filter.unwrap_or(FilterStrategy::Auto),
            eval: self.eval.unwrap_or(EvalStrategy::Kernel),
            threads: self.threads,
            packed: self.packed.unwrap_or(true),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_encodes_to_nothing() {
        let c = EngineConfig::default();
        assert_eq!(c.encode(), "");
        assert_eq!(EngineConfig::parse("").unwrap(), c);
    }

    #[test]
    fn every_key_round_trips_through_the_table() {
        let spec = "engine=maspar budget=ms=50,iters=3 class=interactive faults=42 \
                    transient=2 parses=9 filter=bmm eval=naive threads=4 \
                    packed=false";
        let c = EngineConfig::parse(spec).unwrap();
        assert_eq!(c.engine.as_deref(), Some("maspar"));
        assert_eq!(c.budget.max_filter_iterations, Some(3));
        assert_eq!(c.class, Some(SloClass::Interactive));
        assert!(c.faults.is_some());
        assert_eq!(c.transient, Some(2));
        assert_eq!(c.max_parses, 9);
        assert_eq!(c.filter, FilterStrategy::Bmm);
        assert_eq!(c.eval, EvalStrategy::Naive);
        assert_eq!(c.threads, Some(4));
        assert!(!c.packed);
        let reparsed = EngineConfig::parse(&c.encode()).unwrap();
        assert_eq!(reparsed, c);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_typed() {
        let mut b = EngineConfig::builder();
        assert_eq!(
            b.set("hats", "3"),
            Err(ConfigError::UnknownKey { key: "hats".into() })
        );
        assert_eq!(
            b.set("batch", "mega"),
            Err(ConfigError::UnknownKey {
                key: "batch".into()
            })
        );
        assert!(matches!(
            b.set("budget", "fuel=9"),
            Err(ConfigError::InvalidValue { key: "budget", .. })
        ));
        assert!(matches!(
            b.set("parses", "lots"),
            Err(ConfigError::InvalidValue { key: "parses", .. })
        ));
    }

    #[test]
    fn build_validates_cross_field_constraints() {
        assert!(matches!(
            EngineConfig::builder().max_parses(0).build(),
            Err(ConfigError::InvalidValue { key: "parses", .. })
        ));
        assert!(matches!(
            EngineConfig::builder().threads(0).build(),
            Err(ConfigError::InvalidValue { key: "threads", .. })
        ));
        assert!(matches!(
            EngineConfig::builder()
                .engine("serial")
                .faults_spec("42")
                .build(),
            Err(ConfigError::Conflict { .. })
        ));
        // Faults with no explicit engine are fine: front-ends route them
        // to the maspar engine (the only one that honors a fault plan).
        assert!(EngineConfig::builder().faults_spec("42").build().is_ok());
    }

    #[test]
    fn fault_context_scales_seeded_plans() {
        // A seeded plan on a 4-PE machine must only name PEs 0..4.
        let c = EngineConfig::builder()
            .fault_context(4, 100)
            .faults_spec("7")
            .build()
            .unwrap();
        assert!(c.faults.is_some());
    }

    #[test]
    fn slo_classes_derive_from_budgets() {
        let tight = ParseBudget::parse_spec("ms=10").unwrap();
        assert_eq!(SloClass::from_budget(&tight), SloClass::Interactive);
        assert_eq!(
            SloClass::from_budget(&ParseBudget::UNLIMITED),
            SloClass::Batch
        );
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert_eq!(SloClass::parse(class.name()).unwrap(), class);
        }
    }
}
