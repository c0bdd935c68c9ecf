"""Independent brute-force implementations used to cross-check the package.

Everything here favors obviousness over speed: plain python loops, O(n^2)
rank counting, exhaustive enumeration.  These are the second route for
every derived quantity the test suite freezes.
"""

import base64
import itertools
import math
import struct

import numpy as np

import seqcal.model
from seqcal.corpus import BOS_ID, EOS_ID


def ece_oracle(pairs, k):
    """Scan each (confidence, correct) pair over the bin edges
    (k-1)/K < p <= k/K."""
    confs, flags = (list(side) for side in pairs)
    n = len(confs)
    bins = [[] for _ in range(k)]
    for p, correct in zip(confs, flags):
        for b in range(1, k + 1):
            low = (b - 1) / k
            high = b / k
            if low < p <= high:
                bins[b - 1].append((p, correct))
                break
        else:
            raise AssertionError(f"confidence {p} fell outside every bin")
    total = 0.0
    for members in bins:
        if not members:
            continue
        conf = sum(p for p, _ in members) / len(members)
        acc = sum(1.0 for _, correct in members if correct) / len(members)
        total += len(members) / n * abs(conf - acc)
    return total


def ranks_oracle(values):
    """O(n^2) average ranks: 1 + #smaller + (#equal - 1) / 2."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(1.0 + smaller + (equal - 1) / 2.0)
    return out


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def spearman_oracle(u, q):
    return pearson_oracle(ranks_oracle(list(u)), ranks_oracle(list(q)))


def auc_oracle(u, quality, theta):
    """All good-bad pairs compared one by one; ties count one half."""
    goods = [ui for ui, qi in zip(u, quality) if qi > theta]
    bads = [ui for ui, qi in zip(u, quality) if not qi > theta]
    total = 0.0
    for g in goods:
        for b in bads:
            if g > b:
                total += 1.0
            elif g == b:
                total += 0.5
    return total / (len(goods) * len(bads))


def abstention_oracle(records, quality_key, alphas):
    ordered = sorted(records, key=lambda r: (r.uncertainty, r.id))
    quals = [r.quality[quality_key] for r in ordered]
    n = len(quals)
    out = []
    for a in alphas:
        drop = int(math.floor(a * n))
        kept = quals[drop:]
        out.append(math.fsum(kept) / len(kept))
    return out


def rouge_n_oracle(hyp, ref, n):
    """Counting route shared with test_rouge; returns (p, r, f1)."""
    def grams(seq):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i : i + n])
            out[g] = out.get(g, 0) + 1
        return out

    hg, rg = grams(hyp), grams(ref)
    overlap = sum(min(c, rg[g]) for g, c in hg.items() if g in rg)
    th = sum(hg.values())
    tr = sum(rg.values())
    p = overlap / th if th else 0.0
    r = overlap / tr if tr else 0.0
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def lcs_oracle(a, b):
    """Exhaustive subsequence enumeration; fine for len <= 10."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    for k in range(len(short), 0, -1):
        for combo in itertools.combinations(short, k):
            if is_subseq(combo, long_):
                return k
    return 0


def rouge_l_oracle(hyp, ref):
    if not hyp or not ref:
        return 0.0, 0.0, 0.0
    lcs = lcs_oracle(tuple(hyp), tuple(ref))
    p = lcs / len(hyp)
    r = lcs / len(ref)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def forward_oracle(model, input_tokens, prefix_tokens, mask=None, be_member=0):
    """Scalar-loop forward pass for every head.

    Mirrors the documented architecture directly: summed embeddings, the
    tanh hidden layer (modulated by the batch-ensemble member's fast
    weights, a_i = r_i * sum_j w_ij s_j z_j + b_i, member 0 by default),
    optional dropout keep flags (a kept unit scaled by 1/(1-rate), a
    dropped one zeroed), the gaussian-process head's cosine features in
    place of the hidden units, then the one output layer: w_o, plus b_o
    when the head has one.
    """
    feat = _hidden_oracle(model, input_tokens, prefix_tokens, mask, be_member)
    if model.sngp is not None:
        feat = _features_oracle(model.sngp, feat)
    logits = []
    for v in range(model.dims.vocab_size):
        out = 0.0 if model.b_o is None else float(model.b_o[v])
        for i in range(len(feat)):
            out += float(model.w_o[v, i]) * feat[i]
        logits.append(out)
    return np.array(logits)


def _sum_state(model, tokens):
    """A running sum of the embeddings from zero, in token order."""
    acc = [0.0] * model.dims.embed_dim
    for t in tokens:
        for j in range(len(acc)):
            acc[j] += float(model.embed[t, j])
    return acc


def _hidden_oracle(model, input_tokens, prefix_tokens, mask=None, be_member=0):
    d = model.dims.embed_dim
    dh = model.dims.hidden_dim
    z = _sum_state(model, input_tokens) + _sum_state(model, (BOS_ID, *prefix_tokens))
    r = [1.0] * dh
    s = [1.0] * (2 * d)
    if model.be is not None:
        r = [float(x) for x in model.be.r[be_member]]
        s = [float(x) for x in model.be.s[be_member]]
    hidden = []
    for i in range(dh):
        pre = 0.0
        for j in range(2 * d):
            pre += float(model.w_h[i, j]) * s[j] * z[j]
        h = math.tanh(r[i] * pre + float(model.b_h[i]))
        if mask is not None:
            h = h / (1.0 - seqcal.model.DROPOUT_RATE) if mask[i] else 0.0
        hidden.append(h)
    return hidden


def _features_oracle(state, hidden):
    big_d = state.w_r.shape[0]
    phi = []
    for i in range(big_d):
        arg = float(state.b_r[i])
        for j in range(len(hidden)):
            arg += float(state.w_r[i, j]) * hidden[j]
        phi.append(math.sqrt(2.0 / big_d) * math.cos(arg))
    return phi


def precision_oracle(model, examples):
    """I + sum of phi phi^T over every teacher-forced row of every example
    (each reference prefix plus the closing eos step), with phi from the
    scalar-loop hidden layer without dropout."""
    big_d = model.sngp.w_r.shape[0]
    precision = [[1.0 if i == j else 0.0 for j in range(big_d)] for i in range(big_d)]
    for ex in examples:
        ref = tuple(ex.reference)
        for t in range(len(ref) + 1):
            phi = _features_oracle(model.sngp, _hidden_oracle(model, ex.input, ref[:t]))
            for i in range(big_d):
                for j in range(big_d):
                    precision[i][j] += phi[i] * phi[j]
    return np.array(precision)


def finite_difference_gradient(loss_fn, array, coords, step=1e-3):
    """Central differences of loss_fn at the given flat coordinates."""
    grads = {}
    flat = array.reshape(-1)
    for c in coords:
        orig = flat[c]
        flat[c] = orig + step
        up = loss_fn()
        flat[c] = orig - step
        down = loss_fn()
        flat[c] = orig
        grads[c] = (up - down) / (2.0 * step)
    return grads


def batch_loss(model, examples, *, be_member=0, dropout_seed=None):
    """The package's mean cross-entropy over every teacher-forced row of
    the batch, the route training takes.  The gradient checks compare
    backprop_gradients against central differences of it."""
    from seqcal.model import _cross_entropy, _forward_rows, build_rows

    structure = build_rows(examples, model.dims)
    rows = np.arange(len(structure.targets))
    cache = _forward_rows(model, structure, rows, be_member=be_member,
                          dropout_seed=dropout_seed)
    return _cross_entropy(cache["logits"], structure.targets)[0]


def cross_entropy_oracle(logits, targets):
    """The rows' mean cross-entropy out of place, leaving `logits` as it
    was: the formula `_cross_entropy` used before it worked in place.
    Returns (loss, exp of the max-shifted logits, their row sums)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=1)
    picked = shifted[np.arange(len(targets)), targets]
    return float(np.mean(np.log(sums) - picked)), exp, sums


def backprop_gradients(model, examples, *, be_member=0, dropout_seed=None):
    """The package's hand-written gradients of batch_loss, as training
    computes them for one step."""
    from seqcal.model import _loss_and_grads, build_rows

    structure = build_rows(examples, model.dims)
    rows = np.arange(len(structure.targets))
    _, grads = _loss_and_grads(model, structure, rows, be_member=be_member,
                               dropout_seed=dropout_seed)
    return grads


def one_example_distributions(members, input_tokens, prefixes, *, run_seed, example_id,
                              step):
    """Posterior-mean rows (live, vocab) for one example's equal-length
    prefixes, derived without the package's posterior routine.

    Contexts and prefix states are forward_oracle's running sums, bos
    first in a prefix.  The units are one dropout pass per sample (member
    0, with a mask shared by every prefix), one pass per batch-ensemble
    member, or one pass per model.  The rows are the mean of the unit
    passes, summed in unit order.  Each unit's pass is `_member_pass`,
    whose forward pass forward_oracle checks.

    The example's masks are one stream, keyed by (run_seed, "mcd",
    example id), read `hidden` draws per mask in (step, sample) order:
    mask (t, m) is the slice [(t*S + m)*H, (t*S + m + 1)*H) of its draws,
    a unit kept where its draw is >= the dropout rate.
    """
    from seqcal.inference import _member_pass
    from seqcal.rng import derive_seed, stream

    config = members[0].config
    dims = members[0].dims
    if config.method in ("mcd", "sngp_mcd"):
        h = dims.hidden_dim
        seed = derive_seed(run_seed, "mcd", example_id)
        units = []
        for m in range(config.samples):
            start = (step * config.samples + m) * h
            draws = stream(seed, "dropout-mask").random(start + h)[start:]
            mask = draws >= seqcal.model.DROPOUT_RATE
            units.append((members[0], mask[None], 0))
    elif config.method == "be":
        units = [(members[0], None, k) for k in range(config.be_size)]
    else:
        units = [(model, None, 0) for model in members]
    total = np.zeros((len(prefixes), dims.vocab_size))
    for model, mask, be_member in units:
        ctx = np.array([_sum_state(model, input_tokens)])
        states = np.array([[_sum_state(model, (BOS_ID, *p)) for p in prefixes]])
        total = total + _member_pass(model, ctx, states, mask, be_member)[0]
    return total / len(units)


def posterior_mean_dist(members, input_tokens, prefix, *, run_seed, example_id, step):
    """The posterior-mean distribution for a single prefix, from
    one_example_distributions."""
    return one_example_distributions(members, input_tokens, [prefix], run_seed=run_seed,
                                     example_id=example_id, step=step)[0]


def package_rows(members, input_tokens, prefixes, *, run_seed, example_id, step):
    """The package's posterior-mean rows for one example's equal-length
    prefixes, from one step_distributions call with the step's slice of
    the example's decode masks, as the batched decoder makes it; asserts
    they equal one_example_distributions to the last bit."""
    from seqcal.inference import step_distributions
    from seqcal.model import dropout_active, dropout_mask, sum_embeddings
    from seqcal.rng import derive_seed

    config = members[0].config
    ctxs = [sum_embeddings(m.embed, input_tokens)[None] for m in members]
    tokens = np.array([tuple(p) for p in prefixes], dtype=int)[None]
    masks = None
    if dropout_active(config.method):
        shape = (step + 1, config.samples, members[0].dims.hidden_dim)
        masks = dropout_mask([derive_seed(run_seed, "mcd", example_id)], shape)[:, step]
    rows = step_distributions(members, ctxs, tokens, masks)[0]
    oracle = one_example_distributions(members, input_tokens, prefixes, run_seed=run_seed,
                                       example_id=example_id, step=step)
    assert np.array_equal(rows, oracle)
    return rows


def package_dist(members, input_tokens, prefix, **kwargs):
    """package_rows for a single prefix."""
    return package_rows(members, input_tokens, [prefix], **kwargs)[0]


def greedy_oracle(members, input_tokens, config, run_seed, example_id):
    """Greedy reference: one path, eos candidates collected along the way."""
    vocab = members[0].dims.vocab_size
    prefix = ()
    logps = []
    total = 0.0
    candidates = []
    for step in range(config.max_len):
        dist = posterior_mean_dist(members, input_tokens, prefix, run_seed=run_seed,
                                   example_id=example_id, step=step)
        logd = np.log(dist)
        if step > 0:
            candidates.append((tuple(prefix), tuple(logps), total, float(logd[EOS_ID])))
        best_v = min(
            range(EOS_ID + 1, vocab),
            key=lambda v: (-float(logd[v]), v),
        )
        lp = float(logd[best_v])
        prefix = prefix + (best_v,)
        logps.append(lp)
        total += lp
    dist = posterior_mean_dist(members, input_tokens, prefix, run_seed=run_seed,
                               example_id=example_id, step=config.max_len)
    candidates.append((tuple(prefix), tuple(logps), total, float(np.log(dist[EOS_ID]))))

    def key(c):
        tokens, _, tot, eos_lp = c
        return (-(tot + eos_lp) / (len(tokens) + 1), tokens)

    return min(candidates, key=key)


def exhaustive_oracle(members, input_tokens, config, run_seed, example_id):
    """Score every content sequence up to max_len; independent of search."""
    vocab = members[0].dims.vocab_size
    content = range(EOS_ID + 1, vocab)
    best = None
    best_key = None
    seqs = [()]
    all_seqs = []
    for _ in range(config.max_len):
        seqs = [s + (v,) for s in seqs for v in content]
        all_seqs.extend(seqs)
    for seq in all_seqs:
        logps = []
        for t in range(len(seq)):
            dist = posterior_mean_dist(members, input_tokens, seq[:t], run_seed=run_seed,
                                       example_id=example_id, step=t)
            logps.append(float(np.log(dist[seq[t]])))
        dist = posterior_mean_dist(members, input_tokens, seq, run_seed=run_seed,
                                   example_id=example_id, step=len(seq))
        eos_lp = float(np.log(dist[EOS_ID]))
        key = (-(sum(logps) + eos_lp) / (len(seq) + 1), seq)
        if best_key is None or key < best_key:
            best_key = key
            best = (seq, tuple(logps), eos_lp)
    return best


def sorted_by_oracle(key, tokens):
    """Per-row order of (key, tokens...) ascending over every entry: key
    (n, c), tokens (n, c, t).  Token columns break key ties
    lexicographically, and lexsort is stable, so equal entries keep their
    column order.  The decoder's partial selection must give its first k
    columns."""
    columns = [tokens[:, :, j] for j in range(tokens.shape[2] - 1, -1, -1)]
    return np.lexsort(columns + [key], axis=-1)


def beam_oracle(members, input_tokens, config, run_seed, example_id):
    """One-example beam search with python lists, one
    one_example_distributions call per step.  The batched decoder must
    reproduce its records exactly, floats included."""
    from seqcal.inference import PredictionRecord, uncertainty_score

    vocab = members[0].dims.vocab_size
    # (tokens, per-token log-probs, running total)
    live = [((), (), 0.0)]
    completed = []
    for step in range(config.max_len):
        prefixes = [tokens for tokens, _, _ in live]
        dists = one_example_distributions(
            members, input_tokens, prefixes,
            run_seed=run_seed, example_id=example_id, step=step,
        )
        logd = np.log(dists)
        candidates = []
        for i, (tokens, logps, total) in enumerate(live):
            if step > 0:
                completed.append((tokens, logps, total, float(logd[i, EOS_ID])))
            for v in range(EOS_ID + 1, vocab):
                lp = float(logd[i, v])
                candidates.append((tokens + (v,), logps + (lp,), total + lp))
        candidates.sort(key=lambda c: (-c[2], c[0]))
        live = candidates[: config.beam_size]
    final_prefixes = [tokens for tokens, _, _ in live]
    dists = one_example_distributions(
        members, input_tokens, final_prefixes,
        run_seed=run_seed, example_id=example_id, step=config.max_len,
    )
    logd = np.log(dists)
    for i, (tokens, logps, total) in enumerate(live):
        completed.append((tokens, logps, total, float(logd[i, EOS_ID])))

    def final_key(item):
        tokens, _, total, eos_lp = item
        return (-(total + eos_lp) / (len(tokens) + 1), tokens)

    tokens, logps, _, eos_lp = min(completed, key=final_key)
    return PredictionRecord(
        id=example_id,
        hypothesis=tokens,
        token_logp=logps,
        eos_logp=eos_lp,
        uncertainty=uncertainty_score(logps, eos_lp),
    )


def bootstrap_oracle(u, q, n_resamples, seed, corr):
    """Bootstrap rank correlation one resample at a time, over the index
    matrix the package draws.  `corr(u, q)` is called per resample; a
    resample with a constant side counts as failed.  Returns (the
    successful correlations in order, the failure count)."""
    from seqcal.rng import stream

    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    idx = stream(seed, "bootstrap").integers(0, len(u), size=(n_resamples, len(u)))
    values = []
    failed = 0
    for row in idx:
        ur, qr = u[row], q[row]
        if len(set(ur.tolist())) < 2 or len(set(qr.tolist())) < 2:
            failed += 1
        else:
            values.append(corr(ur, qr))
    return values, failed


def rows_oracle(examples, dims):
    """Teacher-forced rows built one python list entry per row and stacked
    at the end, the route build_rows took before it wrote in place.
    Returns (ctx_weights, prefix_weights, targets, row_spans)."""
    ctx_rows, prefix_rows, targets, spans = [], [], [], []
    v = dims.vocab_size
    for ex in examples:
        ctx = np.zeros(v)
        for t in ex.input:
            ctx[t] += 1.0
        ref = tuple(ex.reference)
        start = len(targets)
        running = np.zeros(v)
        for t, token in enumerate((BOS_ID, *ref)):
            running[token] += 1.0
            ctx_rows.append(ctx)
            prefix_rows.append(running.copy())
            targets.append(ref[t] if t < len(ref) else EOS_ID)
        spans.append((start, len(targets)))
    return (np.asarray(ctx_rows), np.asarray(prefix_rows),
            np.asarray(targets, dtype=int), tuple(spans))


def batch_rows_oracle(structure, example_idx):
    """Each chosen example's rows, concatenated in order."""
    return np.concatenate([np.arange(*structure.row_spans[i]) for i in example_idx])


def encode_array(values) -> dict:
    """The stored form of an array (or nested list): its shape, and base64
    of its elements packed one by one by struct as little-endian float64,
    a route that never asks numpy for the bytes."""
    arr = np.asarray(values, dtype=float)
    flat = arr.ravel().tolist()
    data = struct.pack("<%dd" % len(flat), *flat)
    return {"shape": list(arr.shape), "f8": base64.b64encode(data).decode("ascii")}


def decode_array(stored: dict) -> np.ndarray:
    """The array of a stored form `encode_array` wrote, unpacked by struct."""
    data = base64.b64decode(stored["f8"])
    return np.array(struct.unpack("<%dd" % (len(data) // 8), data)).reshape(stored["shape"])


def edit_array(holder: dict, key: str, edit) -> None:
    """Replace the stored array `holder[key]` by its decoded array after
    `edit(array)` has changed that array in place."""
    arr = decode_array(holder[key])
    edit(arr)
    holder[key] = encode_array(arr)


def as_format_7(bundle: dict) -> dict:
    """A parsed bundle of the current format rewritten, in place, to the
    layout of format 7: each GP head stores its output weights as
    `sngp.beta` (between `b_r` and `chol_inv`), the member's `w_o` is null,
    and `format_version` is 7."""
    bundle["format_version"] = 7
    for member in bundle["members"]:
        sngp = member["sngp"]
        if sngp is not None:
            member["sngp"] = {"w_r": sngp["w_r"], "b_r": sngp["b_r"],
                              "beta": member["w_o"], "chol_inv": sngp["chol_inv"]}
            member["w_o"] = None
    return bundle


def bundle_dump_oracle(members, path, run_sha256):
    """A bundle streamed to disk with json.dump, its members listed key by
    key and their arrays encoded by `encode_array`: the format as written
    before the bundle layout was declared as a schema, and the route the
    writer used before it encoded in one call."""
    import json
    from dataclasses import asdict

    from seqcal.training import BUNDLE_FORMAT_VERSION

    def member_payload(model):
        out = {
            "seed": model.seed,
            "loss_history": list(model.loss_history),
            "embed": encode_array(model.embed),
            "w_h": encode_array(model.w_h),
            "b_h": encode_array(model.b_h),
            "w_o": encode_array(model.w_o),
            "b_o": None if model.b_o is None else encode_array(model.b_o),
            "be": None,
            "sngp": None,
        }
        if model.be is not None:
            out["be"] = {"r": encode_array(model.be.r), "s": encode_array(model.be.s)}
        if model.sngp is not None:
            st = model.sngp
            out["sngp"] = {
                "w_r": encode_array(st.w_r),
                "b_r": encode_array(st.b_r),
                "chol_inv": encode_array(st.chol_inv),
            }
        return out

    first = members[0]
    payload = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "method": asdict(first.config),
        "dims": asdict(first.dims),
        "run_sha256": run_sha256,
        "members": [member_payload(m) for m in members],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
