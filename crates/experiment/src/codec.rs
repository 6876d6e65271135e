//! The spec-file codec: one [`Codec`] trait over [`crate::json`], and one table per
//! spec type saying how it is written.
//!
//! * An **object** table (`object!`) lists a struct's fields in key order.  A row is
//!   `field` (required, always written), `field: optional` (an `Option`, omitted when
//!   `None`) or `field: default <expr>` (omitted when it holds `<expr>`, which a missing
//!   key decodes to).  The one row list drives encoding, decoding and the unknown-key
//!   check; unknown keys are rejected before any field is read, so a misspelled key is
//!   reported as itself rather than as the required field it displaced.
//! * A **tagged** table (`tagged!`) lists an enum's JSON tags.  A value is written
//!   `"tag"` (unit variant) or `{"tag": body}`, where the body is the object of the
//!   variant's named fields (`Variant { a, b }`) or its single field's own JSON
//!   (`Variant [field]`).  The tag list also feeds the unknown-tag error.
//!
//! Integers stay `u64` and floats use the shortest round-tripping form, so numbers are
//! bit-exact; with the fixed key order and the omitted defaults, encoding is canonical:
//! `decode(encode(x)) == x`, and a second encode yields identical text.  Every error
//! names the offending value's path in the spec (`spec.topology.fanout`).

use crate::json::Json;
use crate::spec::{
    ExperimentSpec, FaultSpec, HedgeSpec, LoadSpec, MitigationSpec, Scale, ScenarioSpec,
    SeedPolicy, SweepAxis, TopologySpec,
};
use tailbench_core::config::{FanoutPolicy, HarnessMode, ReplicaSelector};
use tailbench_core::error::HarnessError;
use tailbench_core::interference::{FaultKind, FaultTarget};
use tailbench_core::queue::AdmissionPolicy;
use tailbench_scenario::{ClientClass, LoadPhase, PhaseShape};

/// A value with a JSON form in the spec format.
pub(crate) trait Codec: Sized {
    /// Encodes to the canonical JSON tree.
    fn encode(&self) -> Json;

    /// Decodes from JSON; `ctx` is the value's path in the spec, named by every error.
    fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError>;
}

fn decode_err(ctx: &str, msg: &str) -> HarnessError {
    HarnessError::Config(format!("experiment spec: {ctx}: {msg}"))
}

macro_rules! leaf {
    ($ty:ty, $expected:literal, |$v:ident| $encode:expr, |$j:ident| $decode:expr) => {
        impl Codec for $ty {
            fn encode(&self) -> Json {
                let $v = self;
                $encode
            }

            fn decode($j: &Json, ctx: &str) -> Result<Self, HarnessError> {
                $decode.ok_or_else(|| decode_err(ctx, concat!("expected ", $expected)))
            }
        }
    };
}

leaf!(u64, "a non-negative integer", |v| Json::U64(*v), |j| j
    .as_u64());
leaf!(
    usize,
    "a non-negative integer",
    |v| Json::U64(*v as u64),
    |j| j.as_usize()
);
leaf!(f64, "a number", |v| Json::F64(*v), |j| j.as_f64());
leaf!(bool, "a boolean", |v| Json::Bool(*v), |j| j.as_bool());
leaf!(String, "a string", |v| Json::str(v.as_str()), |j| j
    .as_str()
    .map(str::to_string));

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Codec::encode).collect())
    }

    fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError> {
        let items = value
            .as_array()
            .ok_or_else(|| decode_err(ctx, "expected an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item, &format!("{ctx}[{i}]")))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Objects.
// ---------------------------------------------------------------------------

/// Rejects a non-object, or any key outside the object's row list.
fn known_keys(value: &Json, keys: &[&str], ctx: &str) -> Result<(), HarnessError> {
    let Json::Obj(pairs) = value else {
        return Err(decode_err(ctx, "expected an object"));
    };
    match pairs.iter().find(|(key, _)| !keys.contains(&key.as_str())) {
        Some((key, _)) => Err(decode_err(
            ctx,
            &format!(
                "unknown field '{key}' (expected one of: {})",
                keys.join(", ")
            ),
        )),
        None => Ok(()),
    }
}

fn optional<T: Codec>(value: &Json, key: &str, ctx: &str) -> Result<Option<T>, HarnessError> {
    value
        .get(key)
        .map(|v| T::decode(v, &format!("{ctx}.{key}")))
        .transpose()
}

fn required<T: Codec>(value: &Json, key: &str, ctx: &str) -> Result<T, HarnessError> {
    optional(value, key, ctx)?.ok_or_else(|| decode_err(ctx, &format!("missing field '{key}'")))
}

/// Implements [`Codec`] for a struct from its row list (see the module docs).
macro_rules! object {
    ($ty:ident { $($field:ident $(: $kind:ident $($default:expr)?)?),+ $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self) -> Json {
                // Each row's JSON, `None` for an omitted default.
                let rows = [$((stringify!($field), object!(@encode self.$field $(, $kind $($default)?)?)),)+];
                Json::obj(rows.into_iter().filter_map(|(key, json)| Some((key, json?))).collect())
            }

            fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError> {
                known_keys(value, &[$(stringify!($field)),+], ctx)?;
                Ok($ty {
                    $($field: object!(@decode value, stringify!($field), ctx $(, $kind $($default)?)?),)+
                })
            }
        }
    };
    (@encode $value:expr) => {
        Some($value.encode())
    };
    (@encode $value:expr, optional) => {
        $value.as_ref().map(Codec::encode)
    };
    (@encode $value:expr, default $default:expr) => {
        ($value != $default).then(|| $value.encode())
    };
    (@decode $value:ident, $key:expr, $ctx:ident) => {
        required($value, $key, $ctx)?
    };
    (@decode $value:ident, $key:expr, $ctx:ident, optional) => {
        optional($value, $key, $ctx)?
    };
    (@decode $value:ident, $key:expr, $ctx:ident, default $default:expr) => {
        optional($value, $key, $ctx)?.unwrap_or($default)
    };
}

object!(ExperimentSpec {
    name,
    app,
    scale: optional,
    mode,
    topology: optional,
    load,
    queue: optional,
    threads,
    requests,
    warmup: optional,
    seed,
    repeats: default 1,
    seed_policy: default SeedPolicy::Derive,
    interference: default Vec::new(),
    sweep: default Vec::new(),
});

object!(TopologySpec {
    shards,
    replication,
    fanout,
    hedge: optional,
    selector: default ReplicaSelector::RoundRobin,
    tied: default false,
});

object!(ScenarioSpec {
    phases,
    classes: default Vec::new(),
    warmup_fraction,
});

object!(LoadPhase { duration_ns, shape });

object!(ClientClass { name, weight });

object!(FaultSpec {
    target,
    start_frac,
    end_frac,
    kind,
});

// ---------------------------------------------------------------------------
// Tagged enums.
// ---------------------------------------------------------------------------

/// An enum written `"tag"` or `{"tag": body}`, from its tag table.
trait Tagged: Sized {
    /// What the enum configures, as the unknown-tag error names it.
    const WHAT: &'static str;
    /// Every tag, in table order.
    const TAGS: &'static [&'static str];

    fn to_variant(&self) -> (&'static str, Option<Json>);

    /// Decodes the variant `tag` names; `Ok(None)` when the table has no such tag.
    fn from_variant(
        tag: &str,
        body: Option<&Json>,
        ctx: &str,
    ) -> Result<Option<Self>, HarnessError>;
}

fn encode_tagged<T: Tagged>(value: &T) -> Json {
    match value.to_variant() {
        (tag, None) => Json::str(tag),
        (tag, Some(body)) => Json::obj(vec![(tag, body)]),
    }
}

fn split_tag<'a>(value: &'a Json, ctx: &str) -> Result<(&'a str, Option<&'a Json>), HarnessError> {
    match value {
        Json::Str(tag) => Ok((tag, None)),
        Json::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, Some(&pairs[0].1))),
        _ => Err(decode_err(
            ctx,
            "expected a string tag or a single-key object",
        )),
    }
}

fn unknown_tag<T: Tagged>(ctx: &str, tag: &str, none: Option<&str>) -> HarnessError {
    let tags: Vec<&str> = none.into_iter().chain(T::TAGS.iter().copied()).collect();
    decode_err(
        ctx,
        &format!("unknown {} '{tag}' ({})", T::WHAT, tags.join(", ")),
    )
}

/// Implements [`Codec`] for an enum from its tag table (see the module docs).
macro_rules! tagged {
    ($ty:ty, $what:literal, {
        $($tag:literal => $($variant:ident)::+ $([$inner:tt])? $({ $($field:ident),+ })?),+ $(,)?
    }) => {
        impl Tagged for $ty {
            const WHAT: &'static str = $what;
            const TAGS: &'static [&'static str] = &[$($tag),+];

            fn to_variant(&self) -> (&'static str, Option<Json>) {
                match self {
                    $($($variant)::+ $({ $inner: body })? $({ $($field),+ })? => (
                        $tag,
                        tagged!(@encode body $([$inner])? $({ $($field),+ })?),
                    ),)+
                }
            }

            fn from_variant(
                tag: &str,
                body: Option<&Json>,
                ctx: &str,
            ) -> Result<Option<Self>, HarnessError> {
                $(if tag == $tag {
                    let ctx = format!("{ctx}.{tag}");
                    return tagged!(@decode body, ctx, $($variant)::+ $([$inner])? $({ $($field),+ })?)
                        .map(Some);
                })+
                Ok(None)
            }
        }

        impl Codec for $ty {
            fn encode(&self) -> Json {
                encode_tagged(self)
            }

            fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError> {
                let (tag, body) = split_tag(value, ctx)?;
                Self::from_variant(tag, body, ctx)?.ok_or_else(|| unknown_tag::<Self>(ctx, tag, None))
            }
        }
    };
    (@encode $body:ident) => {
        None
    };
    (@encode $body:ident [$inner:tt]) => {
        Some($body.encode())
    };
    (@encode $body:ident { $($field:ident),+ }) => {
        Some(Json::obj(vec![$((stringify!($field), $field.encode())),+]))
    };
    (@decode $body:ident, $ctx:ident, $($variant:ident)::+) => {
        match $body {
            None => Ok($($variant)::+),
            Some(_) => Err(decode_err(&$ctx, "takes no value")),
        }
    };
    (@decode $body:ident, $ctx:ident, $($variant:ident)::+ [$inner:tt]) => {
        match $body {
            Some(body) => Codec::decode(body, &$ctx).map(|inner| $($variant)::+ { $inner: inner }),
            None => Err(decode_err(&$ctx, "needs a value")),
        }
    };
    (@decode $body:ident, $ctx:ident, $($variant:ident)::+ { $($field:ident),+ }) => {
        match $body {
            Some(body) => {
                known_keys(body, &[$(stringify!($field)),+], &$ctx)?;
                Ok($($variant)::+ { $($field: required(body, stringify!($field), &$ctx)?),+ })
            }
            None => Err(decode_err(&$ctx, "needs a value")),
        }
    };
}

tagged!(Scale, "scale", {
    "smoke" => Scale::Smoke,
    "quick" => Scale::Quick,
    "full" => Scale::Full,
});

tagged!(HarnessMode, "mode", {
    "integrated" => HarnessMode::Integrated,
    "loopback" => HarnessMode::Loopback { connections },
    "networked" => HarnessMode::Networked { connections, one_way_delay_ns },
    "simulated" => HarnessMode::Simulated,
});

tagged!(FanoutPolicy, "fanout", {
    "broadcast" => FanoutPolicy::Broadcast,
    "hash_key" => FanoutPolicy::HashKey { offset, len },
    "partition" => FanoutPolicy::Partition { offset, len },
});

tagged!(HedgeSpec, "hedge", {
    "delay_ns" => HedgeSpec::DelayNs [0],
    "percentile" => HedgeSpec::Percentile [0],
});

tagged!(ReplicaSelector, "selector", {
    "round-robin" => ReplicaSelector::RoundRobin,
    "least-loaded" => ReplicaSelector::LeastLoaded,
    "p2c" => ReplicaSelector::PowerOfTwo,
});

tagged!(AdmissionPolicy, "queue policy", {
    "block" => AdmissionPolicy::Block [capacity],
    "drop" => AdmissionPolicy::Drop [capacity],
    "drop_deadline" => AdmissionPolicy::DropDeadline { capacity, slo_ns },
    "priority" => AdmissionPolicy::Priority [capacity],
});

tagged!(LoadSpec, "load", {
    "qps" => LoadSpec::Qps [0],
    "fraction_of_capacity" => LoadSpec::FractionOfCapacity [0],
    "closed" => LoadSpec::Closed { think_ns },
    "scenario" => LoadSpec::Scenario [0],
});

tagged!(PhaseShape, "shape", {
    "constant" => PhaseShape::Constant { qps },
    "ramp" => PhaseShape::Ramp { from_qps, to_qps },
    "burst" => PhaseShape::Burst { base_qps, burst_qps, period_ns, duty },
    "diurnal" => PhaseShape::Diurnal { base_qps, amplitude, period_ns },
});

tagged!(FaultTarget, "fault target", {
    "all" => FaultTarget::All,
    "instance" => FaultTarget::Instance [0],
});

tagged!(FaultKind, "fault kind", {
    "slow_down" => FaultKind::SlowDown { factor },
    "pause" => FaultKind::Pause,
    "jitter" => FaultKind::Jitter { amplitude_ns },
});

tagged!(MitigationSpec, "mitigation", {
    "none" => MitigationSpec::Baseline,
    "tied" => MitigationSpec::Tied,
    "hedge" => MitigationSpec::Hedge [0],
    "selector" => MitigationSpec::Selector [0],
    "queue" => MitigationSpec::Queue [0],
});

tagged!(SweepAxis, "axis", {
    "app" => SweepAxis::App [0],
    "mode" => SweepAxis::Mode [0],
    "load_fraction" => SweepAxis::LoadFraction [0],
    "qps" => SweepAxis::Qps [0],
    "threads" => SweepAxis::Threads [0],
    "shards" => SweepAxis::Shards [0],
    "hedge" => SweepAxis::Hedge [0],
    "mitigation" => SweepAxis::Mitigation [0],
});

tagged!(SeedPolicy, "seed policy", {
    "derive" => SeedPolicy::Derive,
    "fixed" => SeedPolicy::Fixed,
});

/// An `Option` of a tagged enum whose `None` is written as the bare tag `none`.
fn decode_or<T: Tagged>(value: &Json, ctx: &str, none: &str) -> Result<Option<T>, HarnessError> {
    let (tag, body) = split_tag(value, ctx)?;
    if tag == none && body.is_none() {
        return Ok(None);
    }
    T::from_variant(tag, body, ctx)?
        .map(Some)
        .ok_or_else(|| unknown_tag::<T>(ctx, tag, Some(none)))
}

/// A topology's fan-out: `None` is the workload's registry default, `"auto"`.
impl Codec for Option<FanoutPolicy> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::str("auto"), encode_tagged)
    }

    fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError> {
        decode_or(value, ctx, "auto")
    }
}

/// A hedge-axis value: `None` is the unhedged point, `"none"`.
impl Codec for Option<HedgeSpec> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::str("none"), encode_tagged)
    }

    fn decode(value: &Json, ctx: &str) -> Result<Self, HarnessError> {
        decode_or(value, ctx, "none")
    }
}
