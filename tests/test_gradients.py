"""Finite-difference verification of the hand-written backward pass.

Every trainable array of every head is spot-checked at randomly chosen
coordinates against central differences of the batch loss.  Step 1e-4
keeps truncation and roundoff both far below the 1e-4 relative gate.
"""

import numpy as np
import pytest

from oracles import backprop_gradients, batch_loss, finite_difference_gradient
from seqcal.corpus import ExampleRecord
from seqcal.model import MethodConfig, ModelDims, SngpConfig, init_model

FD_STEP = 1e-4
REL_TOL = 1e-4


def make_batch(rs, vocab, n=3):
    out = []
    for i in range(n):
        inp = tuple(int(t) for t in rs.integers(0, vocab, size=int(rs.integers(2, 5))))
        ref = tuple(int(t) for t in rs.integers(3, vocab, size=int(rs.integers(1, 4))))
        out.append(ExampleRecord(id=f"g-{i}", input=inp, reference=ref))
    return out


def pick_coords(rs, array, count=20):
    total = array.size
    count = min(count, total)
    return [int(c) for c in rs.choice(total, size=count, replace=False)]


def check_array(rs, array, analytic, loss_fn, label):
    coords = pick_coords(rs, array)
    fd = finite_difference_gradient(loss_fn, array, coords, step=FD_STEP)
    flat = analytic.reshape(-1)
    for c in coords:
        got = float(flat[c])
        want = fd[c]
        denom = max(abs(got), abs(want), 1e-6)
        assert abs(got - want) / denom < REL_TOL, (
            f"{label}[{c}]: analytic {got!r} vs central difference {want!r}"
        )


class TestBaseHead:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_all_arrays(self, seed):
        rs = np.random.default_rng(1000 + seed)
        dims = ModelDims(vocab_size=9, embed_dim=4, hidden_dim=6)
        model = init_model(dims, MethodConfig(method="base"), seed=seed)
        batch = make_batch(rs, 9)
        grads = backprop_gradients(model, batch)

        def loss():
            return batch_loss(model, batch)

        check_array(rs, model.embed, grads["embed"], loss, "embed")
        check_array(rs, model.w_h, grads["w_h"], loss, "w_h")
        check_array(rs, model.b_h, grads["b_h"], loss, "b_h")
        check_array(rs, model.w_o, grads["w_o"], loss, "w_o")
        check_array(rs, model.b_o, grads["b_o"], loss, "b_o")


class TestGpHead:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_arrays(self, seed):
        rs = np.random.default_rng(2000 + seed)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=5)
        cfg = MethodConfig(method="sngp", sngp=SngpConfig(rff_dim=16))
        model = init_model(dims, cfg, seed=seed)
        batch = make_batch(rs, 8)
        grads = backprop_gradients(model, batch)
        assert set(grads) == {"embed", "w_h", "b_h", "w_o"}  # no b_o

        def loss():
            return batch_loss(model, batch)

        check_array(rs, model.embed, grads["embed"], loss, "embed")
        check_array(rs, model.w_h, grads["w_h"], loss, "w_h")
        check_array(rs, model.b_h, grads["b_h"], loss, "b_h")
        check_array(rs, model.w_o, grads["w_o"], loss, "w_o")


class TestBatchEnsemble:
    @pytest.mark.parametrize("member", [0, 2])
    def test_all_arrays_for_member(self, member):
        rs = np.random.default_rng(3000 + member)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=5)
        model = init_model(dims, MethodConfig(method="be", be_size=3), seed=6)
        batch = make_batch(rs, 8)
        grads = backprop_gradients(model, batch, be_member=member)

        def loss():
            return batch_loss(model, batch, be_member=member)

        check_array(rs, model.embed, grads["embed"], loss, "embed")
        check_array(rs, model.w_h, grads["w_h"], loss, "w_h")
        check_array(rs, model.b_h, grads["b_h"], loss, "b_h")
        check_array(rs, model.w_o, grads["w_o"], loss, "w_o")
        check_array(rs, model.b_o, grads["b_o"], loss, "b_o")
        check_array(rs, model.be.r, grads["be.r"], loss, "be_r")
        check_array(rs, model.be.s, grads["be.s"], loss, "be_s")

    def test_other_members_get_zero_gradient(self):
        rs = np.random.default_rng(3100)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=5)
        model = init_model(dims, MethodConfig(method="be", be_size=4), seed=6)
        grads = backprop_gradients(model, make_batch(rs, 8), be_member=1)
        for k in (0, 2, 3):
            assert np.all(grads["be.r"][k] == 0.0)
            assert np.all(grads["be.s"][k] == 0.0)
        assert np.any(grads["be.r"][1] != 0.0)


class TestDropoutPath:
    def test_fixed_mask_gradient(self):
        # with a pinned mask seed the loss is deterministic, so central
        # differences see exactly the masked network
        rs = np.random.default_rng(4000)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=12)
        model = init_model(dims, MethodConfig(method="mcd"), seed=3)
        batch = make_batch(rs, 8)
        grads = backprop_gradients(model, batch, dropout_seed=55)

        def loss():
            return batch_loss(model, batch, dropout_seed=55)

        check_array(rs, model.embed, grads["embed"], loss, "embed")
        check_array(rs, model.w_h, grads["w_h"], loss, "w_h")
        check_array(rs, model.w_o, grads["w_o"], loss, "w_o")

    def test_gp_dropout_combination(self):
        rs = np.random.default_rng(4100)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=6)
        cfg = MethodConfig(method="sngp_mcd", sngp=SngpConfig(rff_dim=10))
        model = init_model(dims, cfg, seed=9)
        batch = make_batch(rs, 8)
        grads = backprop_gradients(model, batch, dropout_seed=77)

        def loss():
            return batch_loss(model, batch, dropout_seed=77)

        check_array(rs, model.w_h, grads["w_h"], loss, "w_h")
        check_array(rs, model.w_o, grads["w_o"], loss, "w_o")


class TestGradientStructure:
    def test_duplicated_batch_keeps_gradients(self):
        rs = np.random.default_rng(5000)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=5)
        model = init_model(dims, MethodConfig(method="base"), seed=8)
        ex = make_batch(rs, 8, n=1)
        single = backprop_gradients(model, ex)
        doubled = backprop_gradients(model, ex + ex)
        for name in ("embed", "w_h", "b_h", "w_o", "b_o"):
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_shapes_mirror_parameters(self):
        rs = np.random.default_rng(5100)
        dims = ModelDims(vocab_size=8, embed_dim=4, hidden_dim=5)
        model = init_model(dims, MethodConfig(method="base"), seed=8)
        grads = backprop_gradients(model, make_batch(rs, 8))
        assert grads["embed"].shape == model.embed.shape
        assert grads["w_h"].shape == model.w_h.shape
        assert set(grads) == {"embed", "w_h", "b_h", "w_o", "b_o"}
