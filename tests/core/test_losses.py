"""Tests for the OpenIMA training objectives and baseline auxiliary losses."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.losses import (
    bpcl_loss,
    concat_views,
    confidence_pseudo_label_loss,
    cross_entropy_loss,
    entropy_regularization,
    info_nce_loss,
    margin_cross_entropy_loss,
    pairwise_similarity_loss,
    self_distillation_loss,
    supervised_contrastive_loss,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import gradcheck
from tests.oracle import positive_mask, supcon_reference


def normalized_features(array):
    return F.l2_normalize(Tensor(np.asarray(array, dtype=float)))


class TestPositiveMask:
    """The oracle's explicit mask, which the fused loss never builds."""

    def test_view_pairs_always_positive(self):
        mask = positive_mask(np.array([-1, -1, -1, -1]))
        assert mask[0, 2] and mask[2, 0]
        assert mask[1, 3] and mask[3, 1]
        assert not mask[0, 1]
        assert not mask.diagonal().any()

    def test_shared_group_ids_are_positive(self):
        # Nodes 0 and 1 share class 5; their four views are mutual positives.
        mask = positive_mask(np.array([5, 5, -1, 5, 5, -1]))
        assert mask[0, 1] and mask[0, 3] and mask[0, 4]
        assert not mask[0, 2] and not mask[0, 5]
        assert mask[2, 5] and mask[5, 2]  # unlabeled node's own views

    def test_negative_ids_never_group(self):
        mask = positive_mask(np.array([-1, -1, -1, -1, -1, -1]))
        # Only the view pairs are positives.
        assert mask.sum() == 6  # 3 nodes x 2 directions

    def test_odd_length_raises(self):
        with pytest.raises(ValueError):
            positive_mask(np.array([0, 1, 2]))


class TestSupervisedContrastiveLoss:
    def test_matches_manual_infonce_for_two_nodes(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(4, 3))
        features = normalized_features(raw)
        tau = 0.7
        loss = supervised_contrastive_loss(features, np.array([-1, -1, -1, -1]), tau).item()

        z = features.data
        sims = z @ z.T / tau
        manual_terms = []
        positives = {0: 2, 1: 3, 2: 0, 3: 1}
        for i in range(4):
            denom = sum(np.exp(sims[i, k]) for k in range(4) if k != i)
            manual_terms.append(-np.log(np.exp(sims[i, positives[i]]) / denom))
        assert loss == pytest.approx(np.mean(manual_terms), abs=1e-8)

    def test_aligned_positives_give_lower_loss(self):
        rng = np.random.default_rng(1)
        # Two classes: class 0 points near +e1, class 1 near -e1.
        direction = np.array([1.0, 0.0, 0.0])
        class0 = direction + rng.normal(0, 0.05, size=(4, 3))
        class1 = -direction + rng.normal(0, 0.05, size=(4, 3))
        batch = np.vstack([class0[:2], class1[:2], class0[2:], class1[2:]])
        features = normalized_features(batch)
        correct_groups = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        wrong_groups = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        loss_correct = supervised_contrastive_loss(features, correct_groups, 0.5).item()
        loss_wrong = supervised_contrastive_loss(features, wrong_groups, 0.5).item()
        assert loss_correct < loss_wrong

    def test_gradient_flows(self):
        rng = np.random.default_rng(2)
        raw = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        features = F.l2_normalize(raw)
        loss = supervised_contrastive_loss(features, np.array([0, 1, -1, 0, 1, -1]), 0.7)
        loss.backward()
        assert raw.grad is not None
        assert np.isfinite(raw.grad).all()

    def test_invalid_temperature(self):
        features = normalized_features(np.eye(4))
        with pytest.raises(ValueError):
            supervised_contrastive_loss(features, np.array([-1] * 4), 0.0)

    def test_info_nce_wrapper(self):
        rng = np.random.default_rng(3)
        features = normalized_features(rng.normal(size=(4, 3)))
        assert info_nce_loss(features, 0.7).item() == pytest.approx(
            supervised_contrastive_loss(features, np.array([-1] * 4), 0.7).item()
        )


#: Group-id layouts of a 2N batch, as the fused loss's parity cases.
ID_LAYOUTS = ("symmetric", "asymmetric", "unlabeled", "single_group", "sparse_large")


def group_ids_for(layout: str, half: int, rng: np.random.Generator) -> np.ndarray:
    """Length-2N group ids; rows ``i`` and ``i + N`` are one node's views."""
    if layout == "symmetric":
        return np.tile(rng.integers(-1, 3, size=half), 2)
    if layout == "asymmetric":
        return rng.integers(-1, 3, size=2 * half)
    if layout == "unlabeled":
        return -np.ones(2 * half, dtype=np.int64)
    if layout == "single_group":
        return np.full(2 * half, 4, dtype=np.int64)
    return rng.choice(np.array([-7, 0, 10**9, 2**62]), size=2 * half)


def loss_and_grad(loss_fn, features: np.ndarray, group_ids, temperature):
    leaf = Tensor(features, requires_grad=True)
    loss = loss_fn(leaf, group_ids, temperature)
    loss.backward()
    return loss.item(), leaf.grad


class TestFusedSupervisedContrastiveLoss:
    """The one-node fused loss against the autodiff composition oracle."""

    @settings(max_examples=200, deadline=None)
    @given(layout=st.sampled_from(ID_LAYOUTS), half=st.integers(1, 12),
           dim=st.integers(1, 6), temperature=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    @example(layout="asymmetric", half=1, dim=3, temperature=0.05, seed=0)
    @example(layout="sparse_large", half=1, dim=2, temperature=2.0, seed=1)
    def test_matches_oracle(self, layout, half, dim, temperature, seed):
        rng = np.random.default_rng(seed)
        features = normalized_features(rng.normal(size=(2 * half, dim))).data
        group_ids = group_ids_for(layout, half, rng)
        loss, grad = loss_and_grad(supervised_contrastive_loss, features,
                                   group_ids, temperature)
        expected_loss, expected_grad = loss_and_grad(supcon_reference, features,
                                                     group_ids, temperature)
        assert loss == pytest.approx(expected_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=1e-12)

    def test_odd_length_raises(self):
        with pytest.raises(ValueError):
            supervised_contrastive_loss(normalized_features(np.eye(3)), np.array([0, 1, 2]))

    def test_records_one_node(self):
        rng = np.random.default_rng(7)
        features = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        loss = supervised_contrastive_loss(features, np.array([0, 1, -1, 1, 0, -1]))
        assert loss._parents == (features,)

    @pytest.mark.parametrize("group_ids", [
        [0, 1, -1, 0, 1, -1],   # symmetric
        [0, 1, 2, 1, 0, -1],    # the two views of a node disagree
    ])
    def test_gradcheck_through_l2_normalize(self, group_ids):
        rng = np.random.default_rng(8)
        ids = np.array(group_ids)
        assert gradcheck(
            lambda raw: supervised_contrastive_loss(F.l2_normalize(raw), ids, 0.5),
            [rng.normal(size=(6, 4))])

    def test_backward_is_reentrant(self):
        rng = np.random.default_rng(9)
        features = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        loss = supervised_contrastive_loss(features, np.array([0, 0, 1, -1, 0, 2, 1, -1]))
        grads = []
        for _ in range(2):
            features.zero_grad()
            loss._backward(np.ones(()))
            grads.append(features.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_peak_memory_is_about_one_similarity_matrix(self):
        # The composition held 17 (2N)^2 float64 arrays at its peak; the
        # fused op keeps one similarity/softmax buffer.
        rng = np.random.default_rng(10)
        total, dim = 1024, 64
        features = Tensor(normalized_features(rng.normal(size=(total, dim))).data,
                          requires_grad=True)
        group_ids = np.tile(rng.integers(-1, 8, size=total // 2), 2)
        tracemalloc.start()
        try:
            supervised_contrastive_loss(features, group_ids).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * total * total * 8


class TestCrossEntropyVariants:
    def test_margin_zero_equals_plain_ce(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 3)))
        targets = np.array([0, 1, 2, 1, 0])
        assert margin_cross_entropy_loss(logits, targets, 0.0).item() == pytest.approx(
            cross_entropy_loss(logits, targets).item()
        )

    def test_positive_margin_increases_loss(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(5, 3)))
        targets = np.array([0, 1, 2, 1, 0])
        plain = margin_cross_entropy_loss(logits, targets, 0.0).item()
        with_margin = margin_cross_entropy_loss(logits, targets, 2.0).item()
        assert with_margin > plain


class TestAuxiliaryLosses:
    def test_pairwise_similarity_identical_rows_gives_low_loss(self):
        probabilities = F.softmax(Tensor(np.array([[10.0, 0.0], [10.0, 0.0]])), axis=-1)
        loss = pairwise_similarity_loss(probabilities, np.array([1, 0])).item()
        assert loss < 0.01

    def test_pairwise_similarity_disjoint_rows_high_loss(self):
        probabilities = F.softmax(Tensor(np.array([[10.0, 0.0], [0.0, 10.0]])), axis=-1)
        loss = pairwise_similarity_loss(probabilities, np.array([1, 0])).item()
        assert loss > 2.0

    def test_entropy_regularization_prefers_uniform_mean(self):
        uniform = Tensor(np.full((4, 4), 0.25))
        collapsed = Tensor(np.tile([0.97, 0.01, 0.01, 0.01], (4, 1)))
        assert entropy_regularization(uniform).item() < entropy_regularization(collapsed).item()

    def test_self_distillation_perfect_match_low_loss(self):
        logits = Tensor(np.array([[8.0, -8.0], [-8.0, 8.0]]))
        teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert self_distillation_loss(logits, teacher, temperature=1.0).item() < 0.01

    def test_self_distillation_sharpening(self):
        logits = Tensor(np.zeros((1, 2)))
        teacher = np.array([[0.6, 0.4]])
        soft = self_distillation_loss(logits, teacher, temperature=1.0).item()
        sharp = self_distillation_loss(logits, teacher, temperature=0.1).item()
        # Both reduce to log(2) because the student is uniform, but the
        # sharpened target is valid and finite.
        assert np.isfinite(soft) and np.isfinite(sharp)

    def test_confidence_pseudo_label_loss_masks_rows(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]]))
        pseudo = np.array([0, 1, 0])
        none_selected = confidence_pseudo_label_loss(logits, pseudo, np.zeros(3, dtype=bool))
        assert none_selected.item() == 0.0
        some = confidence_pseudo_label_loss(logits, pseudo, np.array([True, True, False]))
        assert some.item() < 0.1


class TestBPCL:
    def test_combines_both_levels(self):
        rng = np.random.default_rng(6)
        embeddings = normalized_features(rng.normal(size=(6, 4)))
        logits = normalized_features(rng.normal(size=(6, 3)))
        groups = np.array([0, -1, 1, 0, -1, 1])
        both = bpcl_loss(embeddings, logits, groups, 0.7).item()
        emb_only = bpcl_loss(embeddings, None, groups, 0.7, use_logit_level=False).item()
        logit_only = bpcl_loss(embeddings, logits, groups, 0.7, use_embedding_level=False).item()
        assert both == pytest.approx(emb_only + logit_only, abs=1e-8)

    def test_logit_level_requires_logits(self):
        embeddings = normalized_features(np.eye(4))
        with pytest.raises(ValueError):
            bpcl_loss(embeddings, None, np.array([-1] * 4), 0.7, use_logit_level=True,
                      use_embedding_level=False)

    def test_both_levels_disabled_raises(self):
        embeddings = normalized_features(np.eye(4))
        with pytest.raises(ValueError):
            bpcl_loss(embeddings, None, np.array([-1] * 4), 0.7,
                      use_embedding_level=False, use_logit_level=False)

    def test_concat_views_layout(self):
        view1 = Tensor(np.ones((2, 3)))
        view2 = Tensor(np.zeros((2, 3)))
        stacked = concat_views(view1, view2)
        assert stacked.shape == (4, 3)
        np.testing.assert_array_equal(stacked.data[:2], 1.0)
        np.testing.assert_array_equal(stacked.data[2:], 0.0)
