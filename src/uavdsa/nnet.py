"""Dense feedforward network kernel with manual backpropagation.

Shared by the sensing classifier and the Q-network family. `backward` is
the classifier's gradient, binary cross-entropy on a sigmoid output layer;
the DQN step builds its own error and calls `backpropagate`. A network's
dtype is its layers' dtype: inputs, targets, gradients and Adam's moments
follow it, and losses are computed in float64. The classifier is float32,
the precision of its captures and checkpoints; the Q-networks are float64.
Checkpoints are stored as 32-bit floats. Inputs may be single vectors or
(batch, dim) matrices; batch losses and gradients are means over the batch.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_rng

ACTIVATIONS = ("identity", "relu", "sigmoid")
MAX_HIDDEN_WIDTH = 1024  # the widest hidden layer a configured network may have
# the most hidden layers a configured network may have: 16 of full width hold
# 134 MB of float64 parameters, and a training DQN agent peaks near 6 times that
MAX_HIDDEN_DEPTH = 16
_ACT_CODE = {name: i for i, name in enumerate(ACTIVATIONS)}


class NonFiniteLossError(RuntimeError):
    """Raised when training numerics break down."""


@dataclass
class Layer:
    w: np.ndarray  # (in_dim, out_dim); (k, in_dim, out_dim) in a NetworkStack
    b: np.ndarray  # (out_dim,); (k, 1, out_dim) in a NetworkStack
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        stacked = (len(self.w), 1) if self.w.ndim == 3 else ()  # a NetworkStack's k
        if self.w.ndim not in (2, 3) or self.b.shape != (*stacked, self.w.shape[-1]):
            raise ValueError("inconsistent layer shapes")


@dataclass
class Network:
    """A chain of dense layers over one flat parameter vector of their dtype.

    `params` holds every layer's weights then biases, layer by layer; each
    Layer's `w` and `b` are views into it, so per-layer and whole-network
    updates see the same numbers. The gradient buffer has the same layout
    and is allocated by the first `backpropagate`.
    """

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False)
    _grad: np.ndarray | None = field(default=None, init=False, repr=False)
    _grad_views: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.w.shape[1] != cur.w.shape[0]:
                raise ValueError("chained layer dimensions do not match")
        if not all(np.isfinite(l.w).all() and np.isfinite(l.b).all() for l in self.layers):
            raise ValueError("weights must be finite")
        self.params = np.empty(sum(l.w.size + l.b.size for l in self.layers),
                               dtype=self.layers[0].w.dtype)
        for layer, (w, b) in zip(self.layers, self._views_of(self.params)):
            w[...] = layer.w
            b[...] = layer.b
            layer.w, layer.b = w, b

    def _views_of(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (w, b) views into a vector laid out like `params`, or
        into a (k, P) stack of such vectors, with the leading k kept."""
        views, pos, lead = [], 0, flat.shape[:-1]
        for layer in self.layers:
            (n_in, n_out), end = layer.w.shape, pos + layer.w.size
            views.append((flat[..., pos:end].reshape(*lead, n_in, n_out),
                          flat[..., end:end + n_out]))
            pos = end + n_out
        return views

    def gradient(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The flat gradient buffer and its per-layer (dW, db) views."""
        if self._grad is None:
            self._grad = np.zeros_like(self.params)
            self._grad_views = self._views_of(self._grad)
        return self._grad, self._grad_views

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[1]


@dataclass
class NetworkStack:
    """Networks of one shape, run as one: their parameters become the rows
    of one (k, P) buffer, `params`. Each network's own `params` is its row
    and its layers view that row, so the networks keep their arithmetic,
    while `layers` holds the same numbers as stacked views, w (k, in, out)
    and b (k, 1, out), which forward_trace runs at once by broadcasting:
    every pre- and post-activation but the input gets a leading axis of k,
    and slice i is network i's own pass, bit for bit. A network assigned
    afterwards in place of a stacked one is not in the stack."""

    nets: list[Network]
    params: np.ndarray = field(init=False, repr=False)
    layers: list[Layer] = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.stack([net.params for net in self.nets])
        for net, row in zip(self.nets, self.params):
            net.params = row
            for layer, (w, b) in zip(net.layers, net._views_of(row)):
                layer.w, layer.b = w, b
        first = self.nets[0]
        self.layers = [Layer(w, b[:, None], layer.activation)
                       for layer, (w, b) in zip(first.layers, first._views_of(self.params))]

    @property
    def input_dim(self) -> int:
        return self.nets[0].input_dim


def build_network(dims: list[int], activations: list[str], seed: int,
                  dtype=np.float64) -> Network:
    """Seeded initialization: He-scaled normals for ReLU layers, Xavier-style
    for sigmoid/identity, drawn in float64 and rounded to `dtype`; zero biases."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    rng = derive_rng(seed, 0x2E7)
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        scale = np.sqrt(2.0 / fan_in) if act == "relu" else np.sqrt(1.0 / fan_in)
        w = rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(dtype, copy=False)
        layers.append(Layer(w=w, b=np.zeros(fan_out, dtype), activation=act))
    return Network(layers)


def _apply_activation(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":  # far below zero exp(-z) overflows to inf, giving the limit 0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    return z


def _times_activation_grad(delta: np.ndarray, z: np.ndarray, act: str) -> np.ndarray:
    """delta times the activation's derivative at z, in place (an identity
    layer's derivative is 1.0, so it leaves delta as it is)."""
    if act == "relu":
        delta *= z > 0.0
    elif act == "sigmoid":  # its gradient enters only through the bce shortcut
        raise ValueError("a sigmoid layer is trainable only as the output of a bce loss")
    return delta


def _rows(x, dtype) -> np.ndarray:
    """x as a batch-first matrix of `dtype`; one that already is passes as is."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == dtype:
        return x
    return np.atleast_2d(np.asarray(x, dtype=dtype))


def forward_trace(net: Network | NetworkStack, x: np.ndarray):
    """All pre-activations and activations, batch-first; `backward` accepts
    this trace so that a caller who already ran it does not run it twice.
    A NetworkStack's trace puts its k networks first (see NetworkStack)."""
    a = _rows(x, net.params.dtype)
    if a.shape[1] != net.input_dim:
        raise ValueError(f"input dim {a.shape[1]} != network input {net.input_dim}")
    pre, post = [], [a]
    for layer in net.layers:
        z = a @ layer.w
        z += layer.b
        a = _apply_activation(z, layer.activation)
        pre.append(z)
        post.append(a)
    return pre, post


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Network output; a 1-D input yields a 1-D output."""
    single = np.asarray(x).ndim == 1
    _, post = forward_trace(net, x)
    out = post[-1]
    return out[0] if single else out


def output_loss(y: np.ndarray, t: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid outputs y against targets t of
    their shape, in float64 (so that 1 - 1e-12, the clip, is not 1)."""
    y, t = np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    y_c = np.clip(y, 1e-12, 1.0 - 1e-12)
    return float(np.mean(-t * np.log(y_c) - (1.0 - t) * np.log1p(-y_c)))


def backward(net: Network, x: np.ndarray, target: np.ndarray, trace=None):
    """Exact gradients (dW, db) of output_loss for every layer of a network
    with a sigmoid output layer, means over the batch: sigmoid and cross-
    entropy cancel to the output error (y - t) / size, which `backpropagate`
    carries down. `trace` is forward_trace(net, x) if the caller holds it."""
    trace = forward_trace(net, x) if trace is None else trace
    t = _rows(target, net.params.dtype)
    y = trace[1][-1]
    if y.shape != t.shape:
        raise ValueError(f"target shape {t.shape} != output shape {y.shape}")
    if net.layers[-1].activation != "sigmoid":
        raise ValueError("backward expects a sigmoid output layer")
    return backpropagate(net, trace, (y - t) / y.size)


def backpropagate(net: Network, trace, delta: np.ndarray):
    """Gradients (dW, db) of every layer from `delta`, the loss's gradient
    at the output layer's pre-activations for each row of `trace`, written
    into the network's gradient buffer (see `Network.gradient`): valid
    until the next backpropagation on the same network."""
    pre, post = trace
    flat, grads = net.gradient()
    for i in range(len(net.layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(post[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)  # delta.sum(axis=0) without its Python wrapper
        if i > 0:
            delta = _times_activation_grad(delta @ net.layers[i].w.T, pre[i - 1],
                                           net.layers[i - 1].activation)
    # a non-finite delta at layer i makes db_i non-finite, so one check of
    # the flat buffer catches it; only then is the top-most such layer found
    if not np.isfinite(flat).all():
        i = max(i for i, (gw, gb) in enumerate(grads)
                if not (np.isfinite(gw).all() and np.isfinite(gb).all()))
        raise NonFiniteLossError(f"non-finite gradient signal at layer {i}")
    return grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_BLOCK = 1 << 14  # elements: one block of the six Adam vectors fits in a 2 MB L2
ADAM_FLUSH_PERIOD = 256  # steps between flushes of subnormal first moments to zero


@dataclass
class OptimizerState:
    """Adam with the ADAM_* constants. `slots` holds the first and second
    moments, laid out like the network's flat parameters, and `scratch`
    two work vectors of one block (or of the whole vector, if shorter), all
    of the parameters' dtype.
    `blocks` holds, for each ADAM_BLOCK
    elements of the flat vectors, the views (params, gradient, m, v, s1,
    s2) a step updates; all are built by the first step."""

    learning_rate: float
    step_count: int = 0
    slots: list = field(default_factory=list)
    scratch: list = field(default_factory=list)
    blocks: list = field(default_factory=list)


def optimizer_step(net: Network, state: OptimizerState):
    """In-place Adam update from the network's gradient buffer (what the
    last `backpropagate` wrote), one block at a time, so the 12 passes over a
    block run while it is in cache; returns (net, state) for chaining.

    The bias corrections are folded into two scalars (Kingma & Ba 2015,
    section 2): p -= a_t m / (sqrt(v) + e_t), with a_t = lr sqrt(1 - b2^t)
    / (1 - b1^t) and e_t = eps sqrt(1 - b2^t). In exact arithmetic this is
    lr m_hat / (sqrt(v_hat) + eps); it rounds differently, and takes one
    vector divide where that form takes three.

    Every ADAM_FLUSH_PERIOD steps, the updated first moments below the
    smallest normal number of the parameters' dtype are set to zero. A dead
    ReLU unit's gradient is exactly zero, so its moment decays by
    ADAM_BETA1 a step into the subnormals, where arithmetic is many times
    slower; such a moment moves its parameter by under 1e-300 in float64
    (1e-30 in float32), below half an ulp of any parameter not itself
    within about 1e-280 (1e-22) of zero, so no parameter bit changes."""
    if not state.slots:
        n = net.params.size
        state.slots = [np.zeros_like(net.params) for _ in range(2)]
        state.scratch = [np.empty(min(n, ADAM_BLOCK), net.params.dtype) for _ in range(2)]
        flat = (net.params, net.gradient()[0], *state.slots)
        state.blocks = [[a[i:i + ADAM_BLOCK] for a in flat] +
                        [s[:min(n - i, ADAM_BLOCK)] for s in state.scratch]
                        for i in range(0, n, ADAM_BLOCK)]
    state.step_count += 1
    t = state.step_count
    flush = t % ADAM_FLUSH_PERIOD == 0
    root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    alpha, eps = state.learning_rate * root / (1.0 - ADAM_BETA1 ** t), ADAM_EPS * root
    for p, g, m, v, s1, s2 in state.blocks:
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
        m += s1
        if flush:  # m *= (|m| >= tiny), with s1 as the test's scratch
            np.abs(m, out=s1)
            np.greater_equal(s1, np.finfo(m.dtype).tiny, out=s1)
            m *= s1
        v *= ADAM_BETA2
        np.square(g, out=s1)
        s1 *= 1.0 - ADAM_BETA2
        v += s1
        np.sqrt(v, out=s2)
        s2 += eps
        np.multiply(m, alpha, out=s1)
        s1 /= s2
        p -= s1
    return net, state


def clone_weights(src: Network) -> Network:
    """Deep, independent copy."""
    return Network([Layer(l.w.copy(), l.b.copy(), l.activation) for l in src.layers])


CHECKPOINT_MAGIC = b"UNNC"
CHECKPOINT_VERSION = 1


def network_to_bytes(net: Network) -> bytes:
    """Versioned binary block: dims header then row-major f32 weights."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(net.layers))]
    for layer in net.layers:
        parts.append(struct.pack("<III", layer.w.shape[0], layer.w.shape[1],
                                 _ACT_CODE[layer.activation]))
    for layer in net.layers:
        parts.append(layer.w.astype("<f4").tobytes(order="C"))
        parts.append(layer.b.astype("<f4").tobytes(order="C"))
    return b"".join(parts)


def network_from_bytes(data: bytes, offset: int = 0, source: str = "network block",
                       dtype=np.float64) -> Network:
    """Parse the network block that runs from `offset` to the end of `data`
    into a network of `dtype`.

    A bad magic or version, an unknown activation code, a truncated block
    and trailing bytes each raise a ValueError that names `source`.
    """
    def bad(problem: str) -> ValueError:
        return ValueError(f"{source}: {problem}")

    if data[offset:offset + 4] != CHECKPOINT_MAGIC:
        raise bad("not a network checkpoint block")
    pos = offset + 12
    if len(data) < pos:
        raise bad("truncated network header")
    version, n_layers = struct.unpack_from("<II", data, offset + 4)
    if version != CHECKPOINT_VERSION:
        raise bad(f"unsupported checkpoint version {version}")
    if n_layers == 0:
        raise bad("network has no layers")
    if len(data) < pos + 12 * n_layers:
        raise bad("truncated layer table")
    shapes = [struct.unpack_from("<III", data, pos + 12 * i) for i in range(n_layers)]
    pos += 12 * n_layers
    for _, _, code in shapes:
        if code >= len(ACTIVATIONS):
            raise bad(f"unknown activation code {code}")
    expected = pos + 4 * sum(fan_in * fan_out + fan_out for fan_in, fan_out, _ in shapes)
    if len(data) != expected:
        raise bad(f"{len(data) - offset} bytes where the network block needs "
                  f"{expected - offset}: " + ("truncated" if len(data) < expected
                                               else "trailing bytes"))
    layers = []
    for fan_in, fan_out, code in shapes:
        w = np.frombuffer(data, dtype="<f4", count=fan_in * fan_out, offset=pos)
        pos += 4 * fan_in * fan_out
        b = np.frombuffer(data, dtype="<f4", count=fan_out, offset=pos)
        pos += 4 * fan_out
        layers.append(Layer(
            w=w.astype(dtype).reshape(fan_in, fan_out),
            b=b.astype(dtype),
            activation=ACTIVATIONS[code],
        ))
    try:
        return Network(layers)
    except ValueError as exc:
        raise bad(str(exc)) from None


def save_checkpoint(net: Network, path: str) -> None:
    with open(path, "wb") as f:
        f.write(network_to_bytes(net))


def load_checkpoint(path: str) -> Network:
    """A classifier checkpoint, as the float32 network that was saved."""
    with open(path, "rb") as f:
        return network_from_bytes(f.read(), source=path, dtype=np.float32)
