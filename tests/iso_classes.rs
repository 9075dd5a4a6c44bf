//! Adversarial collision sweep over the isomorphism class key: layers
//! that are *near*-isomorphic — equal in every field but one — must
//! land in distinct equivalence classes, because one differing field is
//! enough to change a cost-table row. Each test isolates one component
//! of the key (head count, sequence length, layer width, attention
//! stage, first-layer rule, fan-in context, shard scales, and the
//! fault-degraded pair environment) and asserts no false merge, with a
//! control layer proving the rest of the key stayed put.
//!
//! Cross-network comparisons go through [`class_keys`] — a per-layer
//! key composed from the public pieces the collapsed search shares rows
//! under. Within-view structure uses [`accpar::dnn::iso::IsoClasses`]
//! directly.

use accpar::cost::cache::{env_bits, scales_bits, FxHasher};
use accpar::cost::LayerSig;
use accpar::dnn::iso::IsoClasses;
use accpar::dnn::TrainView;
use accpar::hw::GroupCaps;
use accpar::partition::ShardScales;
use accpar::prelude::*;
use std::hash::{Hash, Hasher};

mod common;

/// A generous, obviously-healthy pair environment.
fn test_env() -> PairEnv {
    PairEnv::symmetric(
        GroupCaps {
            flops: 100e12,
            mem_bw: 600e9,
            net_bw: 50e9,
            hbm_bytes: 16e9,
        },
        50e9,
    )
}

/// The per-layer equivalence key of one level, in weighted-layer order:
/// two layers get equal keys exactly when the collapsed search could
/// share a cost-table row between them — same structural class
/// ([`IsoClasses`]: kind, shapes, meta-dims, attention stage, fan-in
/// context), same [`LayerSig`] and head count, same shard-scale bits
/// (the within-level collapse refinement) and same pair-environment
/// bits (the row memo's key). Every network here plans under the
/// default cost configuration and type set, so the context is constant
/// and left out.
fn class_keys(view: &TrainView, env: &PairEnv, scales: &[ShardScales]) -> Vec<u64> {
    let iso = IsoClasses::of(view);
    let config = CostConfig::default();
    let mut layers: Vec<_> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    layers
        .iter()
        .map(|l| {
            let mut h = FxHasher::default();
            iso.layer_class(l.index()).hash(&mut h);
            LayerSig::of(l, &config).hash(&mut h);
            l.heads().hash(&mut h);
            scales_bits(scales[l.index()]).hash(&mut h);
            env_bits(env).hash(&mut h);
            h.finish()
        })
        .collect()
}

/// [`class_keys`] for a network at full shard scales.
fn keys_of(network: &Network, env: &PairEnv) -> Vec<u64> {
    let view = network.train_view().expect("train view");
    class_keys(&view, env, &vec![ShardScales::full(); view.weighted_len()])
}

/// An attention network with a lead projection (so no attention layer
/// sits at index 0 and trips the first-layer rule) and a tail control
/// layer.
fn attn_net(heads: usize, d_model: usize, d_head: usize, seq: usize) -> Network {
    NetworkBuilder::new("attn", FeatureShape::seq(4, seq, d_model))
        .linear("lead", d_model, d_model)
        .multi_head_attention("attn", heads, d_model, d_head)
        .linear("tail", d_model, d_model)
        .build()
        .expect("valid attention net")
}

/// Head count is a meta-dimension of its own: `4×16` and `8×8` heads
/// produce bitwise-equal projection shapes, yet every attention layer
/// must re-key. The head-free lead layer is the control: its key is
/// untouched.
#[test]
fn head_count_alone_splits_the_class() {
    let env = test_env();
    let a = keys_of(&attn_net(4, 64, 16, 32), &env);
    let b = keys_of(&attn_net(8, 64, 8, 32), &env);
    assert_eq!(a.len(), b.len());
    // Weighted order: lead, q, k, v, o, tail.
    assert_eq!(a[0], b[0], "head-free lead layer must keep its key");
    assert_eq!(a[5], b[5], "head-free tail layer must keep its key");
    for (i, what) in [(1, "q"), (2, "k"), (3, "v"), (4, "o")] {
        assert_ne!(a[i], b[i], "{what}: head count alone must split the class");
    }
}

/// Sequence length enters every resolved feature map (and the o
/// projection's attention stage): all keys move between `S=32` and
/// `S=64`, none merge falsely.
#[test]
fn sequence_length_alone_splits_every_class() {
    let env = test_env();
    let a = keys_of(&attn_net(4, 64, 16, 32), &env);
    let b = keys_of(&attn_net(4, 64, 16, 64), &env);
    assert!(
        a.iter().zip(&b).all(|(x, y)| x != y),
        "a longer sequence reshapes every fmap — no key may survive"
    );
}

/// One width change re-keys exactly the layers whose tensors it
/// touches: `fc1`'s output dim is `fc2`'s input dim, so both move, and
/// the upstream `fc0` stays.
#[test]
fn layer_width_alone_splits_the_touched_classes() {
    let env = test_env();
    let a = keys_of(&common::mlp(8, &[32, 48, 64, 64]), &env);
    let b = keys_of(&common::mlp(8, &[32, 48, 96, 64]), &env);
    assert_eq!(a[0], b[0], "untouched upstream layer must keep its key");
    assert_ne!(a[1], b[1], "producer of the widened tensor must re-key");
    assert_ne!(a[2], b[2], "consumer of the widened tensor must re-key");
}

/// The attention stage rides on the `o` projection: with
/// `d_model = heads·d_head` the `q` and `o` projections have identical
/// shapes, head counts and kinds, and still must not merge — `o`
/// carries the score/softmax/context stage `q` does not.
#[test]
fn attention_stage_alone_splits_q_from_o() {
    let view = attn_net(4, 64, 16, 32).train_view().expect("train view");
    let iso = IsoClasses::of(&view);
    // Weighted order: lead(0), q(1), k(2), v(3), o(4), tail(5).
    assert_eq!(
        iso.layer_class(2),
        iso.layer_class(3),
        "k and v are isomorphic and must merge"
    );
    assert_ne!(
        iso.layer_class(1),
        iso.layer_class(4),
        "o carries the attention stage and must not merge with q"
    );
    // The lead projection matches q's shapes but carries no head
    // meta-dimension: distinct class as well.
    assert_ne!(
        iso.layer_class(0),
        iso.layer_class(1),
        "a head-free projection must not merge with an attention one"
    );
}

/// The first-layer position rule: layer 0 never merges with a repeat of
/// itself (its backward phase can be skipped; its fan-in is the input).
#[test]
fn first_layer_never_merges_with_its_repeat() {
    let view = common::mlp(8, &[64, 64, 64])
        .train_view()
        .expect("train view");
    let iso = IsoClasses::of(&view);
    assert_ne!(
        iso.layer_class(0),
        iso.layer_class(1),
        "identical geometry, but layer 0 is positionally special"
    );
}

/// Fan-in refinement: in a chain of four identical layers, the second
/// is fed by the (special) first and stays distinct, while the third
/// and fourth — both fed by a plain repeat — merge. Classes converge
/// from the second repeat on, exactly like a repeated encoder block.
#[test]
fn fan_in_context_refines_but_converges() {
    let view = common::mlp(8, &[64, 64, 64, 64, 64])
        .train_view()
        .expect("train view");
    let iso = IsoClasses::of(&view);
    let classes: Vec<usize> = (0..4).map(|l| iso.layer_class(l)).collect();
    assert_eq!(
        classes,
        vec![0, 1, 2, 2],
        "expected first/second/converged-tail partition"
    );
}

/// Shard scales refine the search-time key: shrinking one layer's shard
/// re-keys that layer and only that layer.
#[test]
fn shard_scales_split_exactly_the_scaled_layer() {
    let network = common::mlp(8, &[64, 64, 64, 64]);
    let view = network.train_view().expect("train view");
    let env = test_env();
    let mut scales = vec![ShardScales::full(); view.weighted_len()];
    let full = class_keys(&view, &env, &scales);
    scales[1] = scales[1].shrink(PartitionType::TypeI, 0.5);
    let shrunk = class_keys(&view, &env, &scales);
    assert_eq!(full[0], shrunk[0]);
    assert_ne!(full[1], shrunk[1], "the shrunken shard must re-key");
    assert_eq!(full[2], shrunk[2]);
}

/// A fault-degraded device changes the pair environment, and the
/// environment is part of every key: all classes of the level split
/// against their healthy selves (no stale row sharing), while an
/// equally-healthy environment leaves every key bit-identical.
#[test]
fn degraded_environment_splits_every_class() {
    let network = common::mlp(8, &[64, 64, 64]);
    let healthy = test_env();
    let mut faulted = healthy;
    faulted.caps_a.flops *= 0.5; // one slow device in the A group
    let baseline = keys_of(&network, &healthy);
    assert_eq!(
        baseline,
        keys_of(&network, &healthy),
        "keys are deterministic"
    );
    let degraded = keys_of(&network, &faulted);
    assert!(
        baseline.iter().zip(&degraded).all(|(a, b)| a != b),
        "a degraded environment must re-key every class of the level"
    );
}
