"""Scoring, loss, training loop, checkpointing, evaluation."""

import dataclasses
import json
from collections import Counter
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from blossomrec.config import AttentionConfig, RunConfig
from blossomrec.data import SeqBatch, SplitDataset, leave_one_out_split, make_synthetic
from blossomrec.embedding import EmbeddingTable
from blossomrec.errors import CheckpointError, ConfigError, DataError
from blossomrec.gradcheck import grad_check
from blossomrec.metrics import EvalResult
from blossomrec.model import (
    Adam,
    Model,
    evaluate,
    evaluate_popularity,
    item_scores,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from blossomrec import fusion, ltis, stis, tensor
from blossomrec import model as model_mod
from blossomrec.tensor import Tensor, linear_cross_entropy, no_grad, parameter, zero_grads
from blossomrec.verify import LAST_ROW_BATCHES, packed_batch_error


def tiny_cfg(**kw):
    base = dict(block_size=4, stride=2, sel_block_size=2, top_k=2, win=2, blk=1,
                heads=2, kv_groups=1, d_model=8, d_head=4)
    base.update(kw)
    return AttentionConfig(**base)


def tiny_model(num_items=20, layers=1, seed=0, **kw):
    return Model(num_items, tiny_cfg(), layers, seed=seed, max_len=16, **kw)


def cross_entropy(scores, target_item):
    """-log softmax(scores)[target_item - 1] for one (V,) row of item
    scores (item ids start at 1): ``linear_cross_entropy`` with an
    identity ``w``, so that ``h @ w.T`` is the scores themselves."""
    v = scores.shape[0]
    return linear_cross_entropy(scores.reshape((1, v)), Tensor(np.eye(v)), [target_item - 1])


def tiny_run(**kw):
    base = dict(d_model=8, d_head=4, heads=2, kv_groups=1, block_size=4, stride=2,
                sel_block_size=2, top_k=2, win=2, blk=1, max_len=16, lr=0.01,
                batch_size=8, dropout=0.0, seed=0, epochs=3, patience=10,
                eval_k=10, negatives=10)
    base.update(kw)
    return RunConfig(**base)


class TestItemScores:
    def test_orthonormal_argmax(self):
        table = EmbeddingTable(6, 6, np.random.default_rng(0))
        table.weights.data[1:] = np.eye(6)
        scores = item_scores(np.eye(6)[4], table)  # h_t = embedding of item 5
        assert int(np.argmax(scores.data)) + 1 == 5

    def test_zero_hidden_zero_scores(self):
        table = EmbeddingTable(5, 4, np.random.default_rng(1))
        scores = item_scores(np.zeros(4), table)
        assert np.all(scores.data == 0.0)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable(9, 5, rng)
        h = rng.normal(size=5)
        got = item_scores(h, table).data
        want = np.array([table.weights.data[i] @ h for i in range(1, 10)])
        assert np.abs(got - want).max() < 1e-12


class TestCrossEntropy:
    def test_uniform_two_items(self):
        loss = cross_entropy(Tensor(np.zeros(2)), 1)
        assert abs(float(loss.data) - np.log(2.0)) < 1e-12

    def test_saturated_target(self):
        loss = cross_entropy(Tensor(np.array([200.0, 0.0, 0.0])), 1)
        assert float(loss.data) < 1e-12

    def test_uniform_equals_log_vocab(self):
        for v in (3, 17, 101):
            loss = cross_entropy(Tensor(np.zeros(v)), v)
            assert abs(float(loss.data) - np.log(v)) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = Tensor(rng.normal(scale=4.0, size=11))
            assert float(cross_entropy(scores, int(rng.integers(1, 12))).data) >= 0.0

    def test_padding_target_rejected(self):
        with pytest.raises(ValueError, match="target -1 outside"):
            cross_entropy(Tensor(np.zeros(4)), 0)

    def test_gradient(self):
        scores = parameter(np.random.default_rng(4).normal(size=7))
        assert grad_check(lambda: cross_entropy(scores, 3), {"s": scores}, h=1e-5) < 1e-6


class TestSequenceLoss:
    def test_softmax_normalization(self):
        """All-uniform model: every transition costs exactly ln |V|."""
        model = tiny_model(num_items=12)
        model.table.weights.data[:] = 0.0  # zero embeddings -> zero scores
        batch = SeqBatch.from_sequences([[3, 5, 1]], max_len=8)
        loss = sequence_loss(model, batch)
        assert abs(float(loss.data) - np.log(12.0)) < 1e-12

    def test_padded_positions_ignored(self):
        model = tiny_model(num_items=10)
        short = SeqBatch.from_sequences([[4, 9, 2]], max_len=8)
        longer = SeqBatch.from_sequences([[4, 9, 2]], max_len=12)
        assert abs(float(sequence_loss(model, short).data)
                   - float(sequence_loss(model, longer).data)) < 1e-12

    def test_batch_without_transitions(self):
        model = tiny_model()
        with pytest.raises(DataError, match="transition"):
            sequence_loss(model, SeqBatch.from_sequences([[5]], max_len=4))

    @pytest.mark.parametrize("seq", [[0, 3, 5], [3, 0, 5], [3, 5, 0]])
    def test_item_id_zero_rejected(self, seq):
        """Id 0 names no item: as a history item it would train the table's
        reserved zero row, and as a target it has no item to score."""
        model = tiny_model()
        batch = SeqBatch.from_sequences([[4, 2, 7], seq], max_len=8)
        with pytest.raises(DataError, match="item id 0"):
            sequence_loss(model, batch, training=True, rng=np.random.default_rng(0))

    def test_two_layer_stack_gradient(self):
        model = Model(7, tiny_cfg(d_model=6, heads=2, kv_groups=1, d_head=4),
                      num_layers=2, seed=8, max_len=10)
        batch = SeqBatch.from_sequences([[1, 5, 2, 6, 3, 4, 7]], max_len=10)
        err = grad_check(lambda: sequence_loss(model, batch), model.parameters(), h=1e-5)
        assert err <= 1e-4

    def test_every_parameter_gets_gradient(self):
        """On an unsaturated batch (more selection blocks than top_k, longer
        than the window) the loss reaches every learnable tensor."""
        model = tiny_model(num_items=14, layers=2, seed=3)
        batch = SeqBatch.from_sequences([[3, 1, 8, 5, 2, 9, 14, 7, 6, 11, 4, 12],
                                         [2, 6, 10, 13, 1, 7, 3]], max_len=16)
        sequence_loss(model, batch).backward()
        dead = [k for k, p in model.parameters().items() if p.grad is None or not p.grad.any()]
        assert dead == []

    def test_matches_per_transition_loop(self):
        """Loss and every parameter gradient equal a naive loop of
        single-row cross-entropies over the real transitions, each
        differentiated on its own with seed 1/T into the same parameters."""
        model = tiny_model(num_items=14, layers=2, seed=3)
        seqs = [[3, 1, 8, 5, 2, 9, 14, 7, 6, 11, 4, 12], [2, 6], [2, 6, 10, 13, 1, 7, 3],
                [9, 4, 4, 12, 1]]
        batch = SeqBatch.from_sequences(seqs, max_len=16)
        params = model.parameters()
        loss = sequence_loss(model, batch)
        loss.backward()
        fused = {k: p.grad.copy() for k, p in params.items()}

        zero_grads(params)
        transitions, start = [], 0
        for seq in seqs:
            transitions += [(start + p, seq[p + 1]) for p in range(len(seq) - 1)]
            start += len(seq)
        assert len(transitions) == sum(len(s) - 1 for s in seqs)
        hidden = model.forward(batch)   # one forward, differentiated once per term
        terms = []
        for row, target in transitions:
            term = cross_entropy(item_scores(hidden[row], model.table), target)
            term.backward(1.0 / len(transitions))
            terms.append(float(term.data))
        assert abs(float(loss.data) - sum(terms) * (1.0 / len(terms))) < 1e-12
        for k, p in params.items():
            assert np.abs(fused[k] - p.grad).max() < 1e-10, k

    def test_backward_twice_through_one_forward(self):
        """Two terms on one forward, each differentiated on its own, give
        the parameter gradients of the same two terms on separate
        forwards: a backward drops each interior gradient once it has
        been used, so the second does not send the first's again. When
        interior gradients were kept, this test read errors 5 times the
        largest gradient entry."""
        model = tiny_model(num_items=14, layers=2, seed=3)
        batch = SeqBatch.from_sequences([[3, 1, 8, 5, 2, 9, 14, 7], [2, 6, 10, 13]], max_len=16)
        params = model.parameters()
        terms = [(2, 5), (10, 13)]   # (stream row, its next item)

        def grads(shared):
            zero_grads(params)
            hidden = model.forward(batch) if shared else None
            for row, target in terms:
                h = hidden if shared else model.forward(batch)
                cross_entropy(item_scores(h[row], model.table), target).backward(0.5)
            return {k: p.grad.copy() for k, p in params.items()}

        separate, shared = grads(False), grads(True)
        for k in params:
            assert np.abs(shared[k] - separate[k]).max() <= 1e-12 * np.abs(separate[k]).max(), k

    @staticmethod
    def desk_step(rng):
        """A one-layer training step at desk width (the benchmark's model),
        dropout 0.1, on N = 106 stream rows."""
        cfg = AttentionConfig(heads=4, kv_groups=2, d_model=32, d_head=8)
        model = Model(40, cfg, 1, seed=0, max_len=64, dropout=0.1)
        batch = SeqBatch.from_sequences([rng.integers(1, 41, n).tolist() for n in (64, 37, 5)],
                                        max_len=64)
        return model, batch

    def test_tape_holds_one_node_per_fused_op(self):
        """The desk step records 17 tape nodes, each fused composite one
        per call: the FFN, the two residual sites (residual, dropout and
        layer norm), the gate, the output projection, and the q and k
        projections each with its RoPE; the v projection's split into
        heads is one reshape, and the attention ops return merged heads.
        The chains of elementwise ops made it 71, 35 with layer norm, the
        gate and RoPE fused, and 25 with the projections and their head
        splits apart from RoPE.
        With the stream's leading axis of one, the loss's reshape to rows
        made it 19, and with the heads first, the v heads' transpose 18."""
        rng = np.random.default_rng(0)
        model, batch = self.desk_step(rng)
        loss = sequence_loss(model, batch, training=True, rng=rng)
        ops = Counter(node._backward.__qualname__.split(".")[0]
                      for node in tensor.GradTape(loss).ops)
        assert ops == Counter(
            matmul=3, reshape=1, take_rows=2, rope=2, gathered_attention=2,
            residual_norm=2, sigmoid_gate=1, ffn=1, affine=1, getitem=1, linear_cross_entropy=1)
        assert sum(ops.values()) == 17

    def test_keys_and_values_reach_attention_without_a_copy(self, monkeypatch):
        """On the desk step, K and V reach both attentions as C-contiguous
        (N, kv_groups, d_head) arrays, so the flat table each gathers
        from, ``reshape(-1, d_head)``, is a view of them. With the heads
        first, both were transposed views, and every call copied them in
        its forward and again in its backward."""
        seen = []

        def spy(q, k, v, idx, valid):
            seen.append((k.data, v.data))
            return tensor.gathered_attention(q, k, v, idx, valid)

        monkeypatch.setattr(fusion, "gathered_attention", spy)
        rng = np.random.default_rng(0)
        model, batch = self.desk_step(rng)
        sequence_loss(model, batch, training=True, rng=rng)
        d_head = model.cfg.d_head
        assert len(seen) == 2
        for k, v in seen:
            for x in (k, v):
                assert x.shape == (batch.lengths.sum(), model.cfg.kv_groups, d_head)
                assert x.flags.c_contiguous
                assert np.shares_memory(x.reshape(-1, d_head), x)

    def test_tape_holds_what_backward_reads(self):
        """On the desk step (N = 106, d = 32), the only (N, 4d) array the
        tape holds is the FFN's tanh output, and the two dropout masks are
        bool: no float64 (N, d) array holds a mask's 0 and 1 / (1 - rate).
        After backward no interior node holds a gradient, and every
        parameter does. The forward graph holds 0.95 MB and, with the
        parameter gradients after backward, 1.04 MB; the bounds are 1.0
        and 1.1 MB. With the q and k projections kept apart from RoPE
        and every interior gradient kept after backward, it was 1.05 and
        1.60 MB, and with the chains of the FFN, the residual sites and
        the head merge, 1.43 and 2.25 MB."""
        rng = np.random.default_rng(0)
        model, batch = self.desk_step(rng)
        sequence_loss(model, batch, training=True, rng=np.random.default_rng(1))   # fills caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = sequence_loss(model, batch, training=True, rng=rng)
            held = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            after = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        n, d = 106, model.cfg.d_model
        arrays = {}

        def collect(x):
            if isinstance(x, np.ndarray):
                arrays[id(x)] = x
            elif isinstance(x, Tensor):
                collect(x.data)
            elif isinstance(x, (tuple, list)):
                for item in x:
                    collect(item)
            elif callable(x) and getattr(x, "__closure__", None):
                for cell in x.__closure__:
                    collect(cell.cell_contents)

        nodes = tensor.GradTape(loss).ops
        assert all(node.grad is None for node in nodes)
        assert all(p.grad is not None for p in model.parameters().values())
        for node in nodes:
            collect(node.data)
            collect(node._backward)
        wide = [a for a in arrays.values() if a.size == n * 4 * d and a.shape[-1] == 4 * d]
        assert len(wide) == 1 and np.abs(wide[0]).max() <= 1.0   # tanh's range
        rows = [a for a in arrays.values() if a.size == n * d]
        masks = [a for a in rows if a.dtype == bool]
        assert len(masks) == 2 and all(m.shape == (n, d) for m in masks)
        assert not any(np.isin(a, (0.0, 1.0 / 0.9)).all() for a in rows if a.dtype != bool)
        assert held < 1.0e6, held
        assert after < 1.1e6, after

    def test_graph_holds_neither_logits_nor_gathered_keys(self):
        """What ``sequence_loss`` leaves on the tape for backward holds no
        (T, V) logit matrix and no gathered (N, K, d_head) key copy. Here
        T = 598 transitions over 5000 items make a 23.9 MB logit matrix,
        and the N = 600 rows' 128 selected keys of width 32 a 19.7 MB
        gathered copy; the graph holds about 7.5 MB (the loss's hidden-state
        and item-table gradients, formed in its forward, are 0.7 MB of it),
        and keeping either array would lift it above 30 MB."""
        cfg = AttentionConfig(block_size=16, stride=8, sel_block_size=16, top_k=8, win=4,
                              blk=1, heads=2, kv_groups=1, d_model=16, d_head=32)
        model = Model(5000, cfg, 1, seed=0, max_len=300)
        rng = np.random.default_rng(0)
        batch = SeqBatch.from_sequences([rng.integers(1, 5001, 300).tolist() for _ in range(2)],
                                        max_len=300)
        sequence_loss(model, batch)   # fills the caches that outlive a step
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = sequence_loss(model, batch)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        logits = 598 * 5000 * 8
        gathered_k = 600 * cfg.top_k * cfg.sel_block_size * cfg.d_head * 8
        bound = 12e6
        assert bound < min(logits, gathered_k)
        assert held < bound, held
        assert np.isfinite(float(loss.data))

    def test_published_width_step_peak(self):
        """One training step at published width (the ``AttentionConfig``
        defaults, 2 layers) on one sequence of 2048 over 3000 items, with
        dropout 0.1, peaks at 128.4 MB of tracemalloc's count above what
        the model holds; the bound is 2% above that. It peaked at 186.2 MB
        while the backward kept every interior gradient, LTIS scoring
        copied each query's compressed keys, the q and k projections
        stayed on the tape beside their RoPE and the FFN's backward formed
        1 - y * y in two buffers."""
        length = 2048
        model = Model(3000, AttentionConfig(), 2, seed=0, max_len=length, dropout=0.1)
        rng = np.random.default_rng(0)
        batch = SeqBatch.from_sequences([rng.integers(1, 3001, length).tolist()], max_len=length)
        sequence_loss(model, batch, training=True, rng=rng).backward()   # fills the caches
        zero_grads(model.parameters())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sequence_loss(model, batch, training=True, rng=rng).backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.02 * 128.4e6, peak

    def test_clamp_padding_changes_only_the_embedding_gradient(self):
        model = tiny_model(num_items=14, layers=2, seed=3)
        batch = SeqBatch.from_sequences([[3, 1, 8, 5, 2, 9, 14, 7], [2, 6, 10]], max_len=16)
        sequence_loss(model, batch).backward()
        params = model.parameters()
        # Padding never reaches the loss, so row 0's gradient is zero; give
        # the clamp something to clear.
        params["embedding"].grad[0] = 1.0
        before = {k: p.grad.copy() for k, p in params.items()}
        model.table.clamp_padding()
        for k, p in params.items():
            if k == "embedding":
                assert np.all(p.grad[0] == 0.0)
                assert np.array_equal(p.grad[1:], before[k][1:])
            else:
                assert np.array_equal(p.grad, before[k]), k


class TestPacking:
    """The model runs each batch as one packed stream of real rows."""

    SEQS = [[3, 1, 8, 5, 2, 9, 14, 7, 6, 11, 4, 12], [2], [2, 6, 10, 13, 1, 7, 3], [],
            [9, 4, 4, 12, 1]]

    @pytest.mark.parametrize("batches", [LAST_ROW_BATCHES, ((12, 1, 7, 2), (1, 1, 5))])
    def test_batch_equals_each_sequence_alone(self, batches):
        """Forward rows, ``last_hidden`` and every parameter gradient of
        ``sequence_loss``, at 1 and 2 layers; each batch holds a length-1
        sequence and its longest."""
        assert packed_batch_error(range(2), batches) < 1e-10

    def test_loss_skips_the_last_row_of_each_segment(self, monkeypatch):
        """Stream rows 11, 12, 19 and 24 end their segments (the empty
        sequence has none) and are not scored; every other row is scored
        against the next row's id."""
        seen = {}
        real_take, real_loss = model_mod.take_rows, model_mod.linear_cross_entropy

        def take(table, ids):
            seen["rows"] = np.asarray(ids).tolist()
            return real_take(table, ids)

        def loss(h, w, targets):
            seen["targets"] = (np.asarray(targets) + 1).tolist()
            return real_loss(h, w, targets)

        monkeypatch.setattr(model_mod, "take_rows", take)
        monkeypatch.setattr(model_mod, "linear_cross_entropy", loss)
        sequence_loss(tiny_model(num_items=14), SeqBatch.from_sequences(self.SEQS, max_len=16))
        assert seen["rows"] == [r for r in range(25) if r not in (11, 12, 19, 24)]
        assert seen["targets"] == [item for seq in self.SEQS for item in seq[1:]]

    def test_dropout_mask_is_drawn_over_stream_rows(self):
        """Two layers draw four (N, d) masks over the N = 25 stream
        rows, and nothing else."""
        model = tiny_model(num_items=14, layers=2, dropout=0.3)
        batch = SeqBatch.from_sequences(self.SEQS, max_len=16)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        sequence_loss(model, batch, training=True, rng=rng)
        for _ in range(4):
            ref.random((25, model.cfg.d_model))
        assert rng.random() == ref.random()

    def test_forward_returns_stream_rows_and_empty_sequences_get_zeros(self):
        """With every weight moved off its initial value (the norms'
        shifts too), ``forward`` returns one row per item, and
        ``last_hidden`` gives an empty sequence exact zeros."""
        model = tiny_model(num_items=14, layers=2)
        rng = np.random.default_rng(6)
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.3, p.data.shape)
        batch = SeqBatch.from_sequences(self.SEQS, max_len=16)
        stream = model.forward(batch).data
        assert stream.shape == (25, model.cfg.d_model)
        assert stream.all()
        hidden = model.last_hidden(batch)
        assert not hidden[3].any() and np.delete(hidden, 3, axis=0).all()
        empty = SeqBatch.from_sequences([[], []], max_len=16)
        assert not model.last_hidden(empty).any()
        assert model.forward(empty).shape == (0, model.cfg.d_model)

    def test_model_path_never_builds_a_dense_mask(self, monkeypatch, eval_setup):
        """A dropout training step with its backward, ``last_hidden`` and
        ``evaluate`` only gather: no dense mask is built and no dense
        attention runs, which only the references do."""
        def dense(*args, **kwargs):
            raise AssertionError("the model path built a dense mask")

        monkeypatch.setattr(ltis, "build_ltis_masks", dense)
        monkeypatch.setattr(stis, "batch_stis_masks", dense)
        monkeypatch.setattr(fusion, "grouped_attention", dense)
        scatter = tensor.index_mask
        for name, module in list(sys.modules.items()):
            if name.startswith("blossomrec") and getattr(module, "index_mask", None) is scatter:
                monkeypatch.setattr(module, "index_mask", dense)
        model = tiny_model(num_items=14, layers=2, dropout=0.3)
        batch = SeqBatch.from_sequences(self.SEQS, max_len=16)
        sequence_loss(model, batch, training=True, rng=np.random.default_rng(7)).backward()
        assert model.w_n.grad.any()
        assert model.last_hidden(batch).shape == (len(self.SEQS), model.cfg.d_model)
        dataset, trained = eval_setup
        assert evaluate(trained, dataset, k=10, n_negatives=10, seed=1).num_users


class TestAdam:
    def test_zero_lr_keeps_parameters(self):
        p = parameter(np.array([1.0, -2.0]))
        opt = Adam({"p": p}, lr=0.0)
        p.grad = np.array([5.0, 5.0])
        opt.step()
        assert p.data.tolist() == [1.0, -2.0]

    def test_descends_quadratic(self):
        p = parameter(np.array([4.0]))
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_in_place_step_equals_textbook_update(self):
        """Three steps, one clipped and one with a parameter left without
        a gradient, move the weights and moments exactly as the
        out-of-place textbook update does."""
        rng = np.random.default_rng(31)
        shapes = {"w": (5, 3), "b": (3,)}
        params = {k: parameter(rng.normal(size=s)) for k, s in shapes.items()}
        opt = Adam(params, lr=0.01)
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for step, size in enumerate((1.0, 100.0, 1.0), start=1):
            for k, p in params.items():
                p.grad = None if (step, k) == (3, "b") else rng.normal(0.0, size, shapes[k])
            grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                     for k, p in params.items()}
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            assert (total > Adam.CLIP_NORM) == (step == 2)
            if total > Adam.CLIP_NORM:
                grads = {k: g * (Adam.CLIP_NORM / total) for k, g in grads.items()}
            b1t, b2t = 1.0 - Adam.BETA1**step, 1.0 - Adam.BETA2**step
            for k, g in grads.items():
                m[k] = Adam.BETA1 * m[k] + (1.0 - Adam.BETA1) * g
                v[k] = Adam.BETA2 * v[k] + (1.0 - Adam.BETA2) * (g * g)
                want[k] -= 0.01 * (m[k] / b1t) / (np.sqrt(v[k] / b2t) + Adam.EPS)
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.data, want[k]), (step, k)
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k])

    def test_clipping_bounds_update(self):
        p = parameter(np.zeros(4))
        opt = Adam({"p": p}, lr=1.0)
        p.grad = np.full(4, 1e6)
        opt.step()
        # clipped to norm 5 then normalized by Adam: finite, modest step
        assert np.abs(p.data).max() <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def dataset():
    log = make_synthetic(20, 40, 2, 8, 0.1, seed=11)
    return leave_one_out_split(log)


@pytest.fixture(scope="module")
def eval_setup():
    log = make_synthetic(15, 120, 2, 8, 0.1, seed=21)
    ds = leave_one_out_split(log)
    model = Model(ds.num_items, tiny_cfg(), 1, seed=2, max_len=16)
    return ds, model


class TestTrain:
    def test_loss_decreases(self, dataset):
        model = Model(dataset.num_items, tiny_cfg(), 1, seed=1, max_len=16)
        state = train(model, dataset, tiny_run(epochs=5))
        assert state.history[4]["train_loss"] < state.history[0]["train_loss"]

    def test_seeded_runs_identical(self, dataset):
        runs = []
        for _ in range(2):
            model = Model(dataset.num_items, tiny_cfg(), 1, seed=7, max_len=16, dropout=0.2)
            state = train(model, dataset, tiny_run(epochs=2, dropout=0.2, seed=7))
            runs.append((state.history, {k: p.data.copy() for k, p in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k]), k

    def test_zero_lr_leaves_parameters(self, dataset, monkeypatch):
        """Only the optimizer step moves a parameter. A run's lr must be
        positive, so the step is stubbed out rather than given lr = 0."""
        monkeypatch.setattr(model_mod.Adam, "step", lambda self: None)
        model = Model(dataset.num_items, tiny_cfg(), 1, seed=3, max_len=16)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        train(model, dataset, tiny_run(epochs=1))
        after = model.parameters()
        for k in before:
            assert np.array_equal(before[k], after[k].data), k

    def test_early_stopping(self, dataset, monkeypatch):
        monkeypatch.setattr(model_mod.Adam, "step", lambda self: None)   # as lr = 0 would
        model = Model(dataset.num_items, tiny_cfg(), 1, seed=5, max_len=16)
        state = train(model, dataset, tiny_run(epochs=50, patience=1))
        # constant parameters -> constant metric -> stop after patience runs out
        assert state.stopped_early
        assert state.epoch == 2

    def test_best_checkpoint_restored(self, dataset):
        model = Model(dataset.num_items, tiny_cfg(), 1, seed=9, max_len=16)
        state = train(model, dataset, tiny_run(epochs=3))
        rerun = evaluate(model, dataset, split="valid", k=10, n_negatives=10, seed=0)
        assert rerun.ndcg_at_k == pytest.approx(state.best_metric)


class TestEvaluate:
    def test_metrics_in_range_and_consistent(self, eval_setup):
        dataset, model = eval_setup
        res = evaluate(model, dataset, split="test", k=10, n_negatives=50, seed=1)
        assert res.num_users == len(dataset.users)
        assert 0.0 <= res.ndcg_at_k <= res.recall_at_k <= 1.0
        assert res.mrr_at_k <= res.recall_at_k

    def test_recall_monotone_in_k(self, eval_setup):
        dataset, model = eval_setup
        r1 = evaluate(model, dataset, k=1, n_negatives=50, seed=1)
        r10 = evaluate(model, dataset, k=10, n_negatives=50, seed=1)
        assert r1.recall_at_k <= r10.recall_at_k

    def test_popularity_baseline_runs(self, eval_setup):
        dataset, _ = eval_setup
        res = evaluate_popularity(dataset, split="valid", k=10, n_negatives=50, seed=1)
        assert 0.0 <= res.ndcg_at_k <= 1.0
        assert res.num_users == len(dataset.users)

    @pytest.mark.parametrize("setting, value", [
        ("k", 0), ("n_negatives", 0), ("n_negatives", -1), ("batch_size", 0), ("seed", -1),
        ("split", "Valid"), ("split", "train")])
    def test_bad_setting_raises_before_any_forward(self, eval_setup, monkeypatch,
                                                   setting, value):
        """Such settings used to skip every user, score zeros, fail inside
        the batching loop or, for a split other than 'valid' or 'test',
        score the test split instead of naming the setting."""
        dataset, model = eval_setup
        monkeypatch.setattr(Model, "last_hidden", lambda *a: pytest.fail("forward pass ran"))
        with pytest.raises(ConfigError, match=f"{setting} must be"):
            evaluate(model, dataset, **{setting: value})
        if setting != "batch_size":
            with pytest.raises(ConfigError, match=f"{setting} must be"):
                evaluate_popularity(dataset, **{setting: value})

    def test_skips_users_without_candidates(self, eval_setup):
        dataset, model = eval_setup
        res = evaluate(model, dataset, k=10, n_negatives=200, seed=1)
        assert res.num_skipped == len(dataset.users)
        assert res.num_users == 0


def _reference_evaluate(scorer, dataset, split, k, n_negatives, seed):
    """The per-user evaluation loop that batched evaluation replaced: a
    (V+1) keep-mask and one draw, one score and one rank per user."""
    per_user = []
    skipped = 0
    for user in dataset.users:
        target = dataset.valid_target[user] if split == "valid" else dataset.test_target[user]
        history = set(dataset.train[user]) | {dataset.valid_target[user],
                                              dataset.test_target[user]}
        excluded = np.fromiter([*history, target], dtype=np.int64)
        keep = np.ones(dataset.num_items + 1, dtype=bool)
        keep[0] = False
        keep[excluded[(excluded >= 1) & (excluded <= dataset.num_items)]] = False
        candidates = np.flatnonzero(keep)
        if len(candidates) < n_negatives:
            skipped += 1
            continue
        negatives = np.random.default_rng([seed, user]).choice(candidates, size=n_negatives,
                                                               replace=False)
        scores = scorer(user, np.concatenate([[target], negatives]).astype(np.int64))
        rank = 1 + int((~(np.asarray(scores[1:], dtype=np.float64) < float(scores[0]))).sum())
        per_user.append((0.0, 0.0, 0.0) if rank > k
                        else (1.0, 1.0 / rank, 1.0 / np.log2(rank + 1.0)))
    if not per_user:
        return EvalResult(0.0, 0.0, 0.0, k, 0, n_negatives, skipped)
    arr = np.asarray(per_user, dtype=np.float64)
    return EvalResult(float(arr[:, 0].mean()), float(arr[:, 1].mean()),
                      float(arr[:, 2].mean()), k, len(per_user), n_negatives, skipped)


def _reference_model_scorer(model, dataset, split, batch_size):
    """Hidden states from the same forward batches, then one matrix-vector
    product per user."""
    hidden = {}
    for lo in range(0, len(dataset.users), batch_size):
        chunk = dataset.users[lo: lo + batch_size]
        batch = SeqBatch.from_sequences([dataset.context(u, split) for u in chunk],
                                        model.max_len)
        h = model.last_hidden(batch)
        for row, u in enumerate(chunk):
            hidden[u] = h[row]
    return lambda user, items: model.table.weights.data[items] @ hidden[user]


def _reference_popularity_scorer(dataset):
    counts = np.zeros(dataset.num_items + 1)
    for seq in dataset.train.values():
        for item in seq:
            counts[item] += 1
    return lambda user, items: counts[items]


def _popularity_with_batch(dataset, split, k, n_negatives, seed, batch_size):
    """``evaluate_popularity`` at another batch size than its own."""
    counts = _reference_popularity_scorer(dataset)(None, np.arange(dataset.num_items + 1))
    return model_mod._evaluate_with(lambda chunk, rows, items: counts[items], dataset, split,
                                    k, n_negatives, seed, batch_size)


def _spread_model(num_items, seed):
    """A tiny model with every weight moved off its initial value."""
    model = Model(num_items, tiny_cfg(), 1, seed=seed, max_len=16)
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p.data += rng.normal(0.0, 0.3, p.data.shape)
    return model


class TestEvaluateMatchesReference:
    """Batched evaluation gives the per-user loop's ``EvalResult``
    exactly: the same draws, scores, ranks and means."""

    @pytest.fixture(scope="class")
    def desk(self):
        # the acceptance tests' desk data: at 150 negatives 3 users are skipped
        ds = leave_one_out_split(make_synthetic(num_users=500, num_items=200, blocks_per_user=4,
                                                block_len=25, noise_rate=0.1, seed=42))
        return ds, _spread_model(ds.num_items, seed=8)

    @pytest.mark.parametrize("batch_size", [1, 7, 128])
    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_desk_data(self, desk, split, batch_size):
        ds, model = desk
        model_ref = _reference_model_scorer(model, ds, split, batch_size)
        pop_ref = _reference_popularity_scorer(ds)
        skipped = []
        for n in (50, 100, 150):
            got = evaluate(model, ds, split=split, k=10, n_negatives=n, seed=3,
                           batch_size=batch_size)
            assert got == _reference_evaluate(model_ref, ds, split, 10, n, 3), n
            want = _reference_evaluate(pop_ref, ds, split, 10, n, 3)
            assert _popularity_with_batch(ds, split, 10, n, 3, batch_size) == want, n
            if batch_size == 128:
                assert evaluate_popularity(ds, split=split, k=10, n_negatives=n, seed=3) == want
            skipped.append(got.num_skipped)
        assert skipped == [0, 0, 3]

    @pytest.fixture(scope="class")
    def edge(self):
        """Twelve users over 30 items. User 4 has seen 24 items, so at 10
        negatives it is skipped mid-batch; user 2's train prefix holds id 0
        and user 5's test target is id 33 (> V). Item 30 has a NaN embedding row and is user 7's valid
        target; items 11-14 share item 3's row, so they tie with it."""
        rng = np.random.default_rng(5)
        users = list(range(1, 13))
        train = {u: rng.integers(1, 30, size=int(rng.integers(3, 12))).tolist() for u in users}
        train[4] = list(range(1, 25))
        train[2] = [0, 5, 6, 0, 7]
        valid = {u: int(rng.integers(1, 30)) for u in users}
        test = {u: int(rng.integers(1, 30)) for u in users}
        valid[7], test[5] = 30, 33
        valid[9] = 3
        ds = SplitDataset(users=users, train=train, valid_target=valid, test_target=test,
                          num_items=30, dropped_users=0)
        model = _spread_model(30, seed=4)
        model.table.weights.data[30] = np.nan
        model.table.weights.data[11:15] = model.table.weights.data[3]
        return ds, model

    @pytest.mark.parametrize("batch_size", [1, 7, 50])
    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_edge_cases(self, edge, batch_size, k):
        """k = 20 exceeds n + 1 = 11. Only the valid split: user 5's test
        target has no embedding row or count to score."""
        ds, model = edge
        want = _reference_evaluate(_reference_model_scorer(model, ds, "valid", batch_size),
                                   ds, "valid", k, 10, 2)
        got = evaluate(model, ds, split="valid", k=k, n_negatives=10, seed=2,
                       batch_size=batch_size)
        assert got == want
        assert got.num_skipped == 1
        want = _reference_evaluate(_reference_popularity_scorer(ds), ds, "valid", k, 10, 2)
        assert _popularity_with_batch(ds, "valid", k, 10, 2, batch_size) == want
        assert evaluate_popularity(ds, split="valid", k=k, n_negatives=10, seed=2) == want

    def test_edge_cases_are_exercised(self, edge):
        """The NaN row reaches a target and some negatives, and ties occur."""
        ds, model = edge
        score = _reference_model_scorer(model, ds, "valid", 7)
        nan_targets = nan_negatives = ties = 0
        for user in ds.users:
            if user == 4:
                continue
            history = set(ds.train[user]) | {ds.valid_target[user], ds.test_target[user]}
            candidates = np.array([i for i in range(1, 31) if i not in history])
            negatives = np.random.default_rng([2, user]).choice(candidates, 10, replace=False)
            scores = score(user, np.concatenate([[ds.valid_target[user]], negatives]))
            nan_targets += bool(np.isnan(scores[0]))
            nan_negatives += bool(np.isnan(scores[1:]).any() and not np.isnan(scores[0]))
            ties += bool((scores[1:] == scores[0]).any())
        assert nan_targets and nan_negatives and ties

    def test_full_catalogue_oracle(self, edge):
        """With n equal to a user's candidate count, every candidate is
        drawn, so the sampled rank is the rank among every item the user
        has not seen, counted by a plain loop over the catalogue."""
        ds, _ = edge
        model = _spread_model(ds.num_items, seed=4)
        hidden = model.last_hidden(SeqBatch.from_sequences(
            [ds.context(u, "valid") for u in ds.users], model.max_len))
        for row, user in enumerate(ds.users):
            target = ds.valid_target[user]
            seen = set(ds.train[user]) | {ds.valid_target[user], ds.test_target[user]}
            unseen = [i for i in range(1, ds.num_items + 1) if i not in seen]
            h = hidden[row].tolist()
            score = {i: sum(a * b for a, b in zip(model.table.weights.data[i].tolist(), h))
                     for i in [target, *unseen]}
            rank = 1 + sum(1 for i in unseen if not score[i] < score[target])
            got = evaluate(model, dataclasses.replace(ds, users=[user]), split="valid",
                           k=ds.num_items, n_negatives=len(unseen), seed=6)
            assert (got.num_users, got.recall_at_k, got.mrr_at_k) == (1, 1.0, 1.0 / rank), user
            assert got.ndcg_at_k == 1.0 / np.log2(rank + 1.0), user

    def test_numpy_ma_not_imported(self):
        """``np.unique`` imports numpy.ma on its first call (about 36 ms in
        numpy 2.x), which evaluation must not pay."""
        code = ("import sys\n"
                "from blossomrec.data import leave_one_out_split, make_synthetic\n"
                "from blossomrec.model import evaluate, evaluate_popularity\n"
                "from blossomrec.config import AttentionConfig\n"
                "from blossomrec.model import Model\n"
                "ds = leave_one_out_split(make_synthetic(8, 40, 2, 6, 0.1, seed=1))\n"
                "cfg = AttentionConfig(block_size=4, stride=2, sel_block_size=2, top_k=2, win=2,"
                " blk=1, heads=2, kv_groups=1, d_model=8, d_head=4)\n"
                "evaluate(Model(ds.num_items, cfg, 1, seed=0, max_len=16), ds, n_negatives=10)\n"
                "evaluate_popularity(ds, n_negatives=10)\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestLastHidden:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("pathway", ["both", "ltis", "stis"])
    def test_equals_last_row_of_full_forward(self, pathway, layers):
        """Each segment's last row of the full forward pass, on batches
        whose longest sequence both pathways see whole (10) and sample
        (40; LTIS from 16 slots, STIS from 28), with every weight moved
        off its initial value."""
        rng = np.random.default_rng(4)
        model = Model(20, tiny_cfg(), layers, seed=1, max_len=40, pathway=pathway)
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.3, p.data.shape)
        for lengths in ((1, 6, 10), (1, 6, 17, 40)):
            batch = SeqBatch.from_sequences([rng.integers(1, 21, n).tolist() for n in lengths],
                                            model.max_len)
            with no_grad():
                full = model.forward(batch).data
            hidden = model.last_hidden(batch)
            assert hidden.shape == (len(lengths), model.cfg.d_model)
            assert np.abs(hidden - full[np.cumsum(lengths) - 1]).max() < 1e-10

    def test_batch_of_one_makes_one_tensor_per_op(self, monkeypatch):
        """Serving one sequence on the one-layer desk model makes 15 op
        outputs (``tensor._make`` calls): the embedding and query-row
        lookups, the q and k projections with RoPE, the v projection and
        its reshape into heads, the two attentions and their output
        projections, the gate, the two residual sites, the FFN and the
        output affine. With the stream's leading axis of one, the
        query-row lookup's two reshapes made it 18, and with the heads
        first, the v heads' transpose 16."""
        cfg = AttentionConfig(heads=4, kv_groups=2, d_model=32, d_head=8)
        model = Model(40, cfg, 1, seed=0, max_len=64)
        batch = SeqBatch.from_sequences([list(range(1, 31))], max_len=64)
        made = Counter()
        make = tensor._make

        def counted(data, parents, backward):
            made[backward.__qualname__.split(".")[0]] += 1
            return make(data, parents, backward)

        monkeypatch.setattr(tensor, "_make", counted)
        assert model.last_hidden(batch).shape == (1, cfg.d_model)
        assert made == Counter(
            take_rows=2, rope=2, matmul=3, reshape=1, gathered_attention=2,
            sigmoid_gate=1, residual_norm=2, ffn=1, affine=1)
        assert sum(made.values()) == 15


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        """Two layers and 12 items (6 selection blocks > top_k 2), so both
        sides score blocks through each layer's fixed projection, which the
        checkpoint does not store but redraws from the seed."""
        model = tiny_model(num_items=14, layers=2, seed=6)
        for p in model.parameters().values():
            p.data += 0.01  # stored values, not a fresh init, must come back
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.num_items == model.num_items
        with np.load(path) as archive:
            assert not any("cmp_" in k for k in archive.files)
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, loaded.parameters()[k].data), k
        batch = SeqBatch.from_sequences([[3, 1, 8, 5, 2, 9, 14, 7, 6, 11, 4, 12]], max_len=16)
        assert np.array_equal(model.forward(batch).data, loaded.forward(batch).data)

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "v1.npz"
        save_checkpoint(tiny_model(), path)
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(arrays["__meta__"].tobytes().decode())
        meta["version"] = 1
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="version 1 unsupported"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez(p, a=np.zeros(3))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(p)
