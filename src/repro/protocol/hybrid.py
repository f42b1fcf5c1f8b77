"""One-round hybrid HE/2PC linear-layer protocols (Figure 1 of the paper).

The client encrypts its activation share and sends it; the server
homomorphically reconstructs the activation, multiplies by its plaintext
weights, subtracts a fresh random mask (its output share), and returns the
ciphertexts; the client decrypts to obtain the other output share:

    server computes  (Enc({x}^C) boxplus {x}^S) boxtimes w  boxminus s
    client holds     {y}^C = y - s

Both convolution and fully-connected layers are provided; the polynomial
multiplication backend is pluggable (exact NTT vs FLASH's approximate FFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    decompose_strided,
    iter_row_bands,
    pad_input,
)
from repro.encoding.linear_encoding import LinearEncoder, LinearShape
from repro.he.backend import (
    FftPolyMulBackend,
    NttPolyMulBackend,
    PolyMulBackend,
)
from repro.he.bfv import BfvContext, Ciphertext
from repro.he.params import BfvParameters
from repro.obs import trace as obs_trace
from repro.protocol.secret_sharing import ShareRing
from repro.protocol.wire import ciphertext_bytes
from repro.runtime.engine import MultReductions


@dataclass
class ProtocolStats(MultReductions):
    """Traffic and workload accounting for one protocol run."""

    ciphertexts_sent: int = 0
    ciphertexts_returned: int = 0
    weight_transforms: int = 0
    input_transforms: int = 0
    inverse_transforms: int = 0
    # Weight-transform multiplication accounting, populated when the
    # backend runs compiled sparse plans (repro.he.backend's
    # SparseFftPolyMulBackend): realized = executed by the plans, dense =
    # dense-butterfly equivalent, model = repro.sparse.opcount prediction.
    weight_mults_realized: int = 0
    weight_mults_dense: int = 0
    weight_mults_model: int = 0
    min_noise_budget: float = float("inf")
    bytes_sent: int = 0
    bytes_received: int = 0
    # Transport resilience (populated when traffic routes through a
    # repro.faults.ResilientSession) and graceful degradation.
    retries: int = 0
    timeouts: int = 0
    checksum_failures: int = 0
    dead_letters: int = 0
    degraded: bool = False

    @property
    def total_transforms(self) -> int:
        return (
            self.weight_transforms
            + self.input_transforms
            + self.inverse_transforms
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


@dataclass
class ProtocolResult:
    """Outcome of one private linear-layer evaluation."""

    client_share: np.ndarray
    server_share: np.ndarray
    reconstructed: np.ndarray
    expected: np.ndarray
    stats: ProtocolStats = field(default_factory=ProtocolStats)

    @property
    def max_error(self) -> int:
        """Worst absolute deviation from the exact plaintext result."""
        return int(
            np.max(np.abs(self.reconstructed.astype(np.int64) - self.expected))
        )

    @property
    def exact(self) -> bool:
        return self.max_error == 0


class _PartyPair:
    """Shared key material and ring for one client/server session."""

    def __init__(self, params: BfvParameters, rng: np.random.Generator):
        if params.t & (params.t - 1):
            raise ValueError("hybrid protocol needs a power-of-two plaintext modulus")
        self.params = params
        self.ctx = BfvContext(params)
        self.ring = ShareRing(params.t.bit_length() - 1)
        self.sk, self.pk = self.ctx.keygen(rng)


class _HybridRound:
    """The one-round protocol both layer kinds run (Figure 1).

    Owns what the conv and FC layers share: construction, the budget
    guard's preflight -> run -> observe -> exact-rerun logic, and the
    three steps of the round (:meth:`_send`, :meth:`_multiply`,
    :meth:`_return`).  A subclass supplies the encoding in ``_run_once``
    and the traced public entry points ``run`` / ``run_batch``.

    Args:
        params: BFV parameters; ``t`` must be a power of two.
        shape: the layer shape the subclass encodes.
        backend: polynomial multiplication backend; by default one exact
            :class:`NttPolyMulBackend`, built here and kept for every run,
            so its weight spectra stay cached across runs.
        transport: optional :class:`repro.faults.ResilientSession`; all
            ciphertext traffic (client->server activations, server->client
            results) then crosses its checksummed channel with bounded
            retry, and the retry/timeout/dead-letter counts land in
            :class:`ProtocolStats`.
        guard: optional :class:`repro.faults.BudgetGuard` watching the
            approximate path for noise-budget exhaustion (predicted via
            :mod:`repro.he.noise` before the run, observed after); under
            the ``"fallback"`` policy the layer transparently reruns on
            the exact NTT backend.  Ignored for exact backends.
        layer_name: label used in guard degradation events (the class's
            ``default_layer_name`` when omitted).
    """

    default_layer_name = "layer"

    def __init__(
        self,
        params: BfvParameters,
        shape,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
        layer_name: Optional[str] = None,
    ):
        self.params = params
        self.shape = shape
        self.backend = backend or NttPolyMulBackend()
        self.transport = transport
        self.guard = guard
        self.layer_name = (
            self.default_layer_name if layer_name is None else layer_name
        )

    def _fallback_protocol(self) -> "_HybridRound":
        return type(self)(
            self.params, self.shape, self.guard.fallback_backend(),
            transport=self.transport, layer_name=self.layer_name,
        )

    def _run_guarded(
        self, xs, w, rng, session, num_accumulated: int
    ) -> List[ProtocolResult]:
        """One round over the items ``xs`` under the budget guard.

        ``num_accumulated`` bounds the ciphertext partial sums per output.
        A predicted or observed budget failure reruns every item on the
        exact backend through ``run_batch``, with the same key material.
        Degradation applies only where an exact fallback exists: the
        approximate-FFT backends (undersized parameters on the exact paths
        are a hard error).
        """
        party = session or _PartyPair(self.params, rng)
        guarded = self.guard is not None and isinstance(
            self.backend, FftPolyMulBackend
        )
        layer = self.layer_name
        degrade = guarded and self.guard.preflight(
            w, num_accumulated=num_accumulated, layer=layer
        )
        if not degrade:
            results = self._run_once(xs, w, rng, party)
            worst = max(r.max_error for r in results)
            degrade = guarded and self.guard.observe(worst, layer=layer)
        if degrade:
            results = self._fallback_protocol().run_batch(
                xs, w, rng, session=party
            )
            for result in results:
                result.stats.degraded = True
        return results

    def _send(
        self,
        party: _PartyPair,
        client_polys,
        server_polys,
        counts,
        rng: np.random.Generator,
        stats: ProtocolStats,
    ) -> List[Ciphertext]:
        """Encrypt and send one item's client share; the server adds its
        own share under encryption.  ``stats`` is charged the traffic and
        the layer's transform ``counts``."""
        ctx, t = party.ctx, self.params.t
        cts = [
            ctx.encrypt_symmetric(party.sk, poly % t, rng)
            for poly in client_polys
        ]
        stats.ciphertexts_sent += len(cts)
        stats.bytes_sent += len(cts) * ciphertext_bytes(self.params)
        stats.input_transforms += len(cts)
        stats.weight_transforms += counts["weight_forward"]
        stats.inverse_transforms += counts["inverse"]
        # Client -> server hop (resilient transport when configured).
        cts = [self._transfer_ct(ct, stats) for ct in cts]
        return [
            ctx.add_plain(ct, poly % t) for ct, poly in zip(cts, server_polys)
        ]

    def _multiply(self, pairs, stats: List[ProtocolStats]) -> List[Ciphertext]:
        """Every ``(ciphertext, weight polynomial)`` product of the round
        in one backend ``multiply_many`` call.

        The backend's ``last_stats`` (weight-transform mults of the sparse
        backend) are per logical layer workload, so -- like
        ``weight_transforms`` -- every item in ``stats`` is charged the
        full count.
        """
        polys, weights = [], []
        for ct, w_poly in pairs:
            polys.extend((ct.c0, ct.c1))
            weights.extend((w_poly, w_poly))
        outs = self.backend.multiply_many(polys, weights)
        last = self.backend.last_stats
        for st in stats:
            st.weight_mults_realized += last.weight_mults_realized
            st.weight_mults_dense += last.weight_mults_dense
            st.weight_mults_model += last.weight_mults_model
        return [Ciphertext(outs[i], outs[i + 1]) for i in range(0, len(outs), 2)]

    def _return(
        self,
        party: _PartyPair,
        cts: List[Ciphertext],
        owners: List[ProtocolStats],
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Mask each output with a fresh share, return it, and decrypt all
        in one batch; ``owners[i]`` is charged ``cts[i]``'s traffic and
        noise budget.  Returns ``(messages, masks)``."""
        ctx, ring = party.ctx, party.ring
        masks, returned = [], []
        for ct, stats in zip(cts, owners):
            r = ring.random(self.params.n, rng)
            masks.append(r)
            stats.ciphertexts_returned += 1
            stats.bytes_received += ciphertext_bytes(self.params)
            # Server -> client hop.
            returned.append(self._transfer_ct(ctx.sub_plain(ct, r), stats))
        messages, budgets = ctx.decrypt_batch(party.sk, returned)
        for stats, budget in zip(owners, budgets):
            stats.min_noise_budget = min(stats.min_noise_budget, budget)
        return messages, masks

    def _transfer_ct(self, ct: Ciphertext, stats: ProtocolStats) -> Ciphertext:
        """Route one ciphertext through the resilient transport.

        Identity when no transport is configured.  Retry/timeout/checksum
        counters accumulated by the session during this transfer are
        attributed to ``stats`` (per-layer / per-item accounting).
        """
        if self.transport is None:
            return ct
        with obs_trace.tracer.span("protocol.transfer"):
            before = self.transport.stats
            base = (
                before.retries,
                before.timeouts,
                before.checksum_failures + before.decode_failures,
                before.dead_letters,
            )
            try:
                return self.transport.transfer_ciphertext(ct, self.params)
            finally:
                after = self.transport.stats
                stats.retries += after.retries - base[0]
                stats.timeouts += after.timeouts - base[1]
                stats.checksum_failures += (
                    after.checksum_failures + after.decode_failures - base[2]
                )
                stats.dead_letters += after.dead_letters - base[3]


class HybridConvProtocol(_HybridRound):
    """Private convolution via coefficient-encoded BFV (Cheetah-style).

    ``shape`` is a :class:`ConvShape` (stride/padding supported); the
    other arguments are those of the shared round (see
    :class:`_HybridRound`).
    """

    default_layer_name = "conv"

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> ProtocolResult:
        """Evaluate ``conv(x, w)`` privately and verify against plaintext.

        A batch of one through :meth:`run_batch` (same rng draws, traffic
        and stats as a one-item batch).

        Args:
            x: clear activation tensor ``C x H x W`` (signed ints); it is
                secret-shared internally before the protocol starts.
            w: server weights ``M x C x kh x kw`` (signed ints).
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material (reuse across
                layers).
        """
        return self.run_batch(np.asarray(x)[None], w, rng, session=session)[0]

    @obs_trace.traced("protocol.conv_batch")
    def run_batch(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> List[ProtocolResult]:
        """Evaluate ``conv(x_i, w)`` privately for a whole batch of inputs.

        The one implementation of the private conv (:meth:`run` is a batch
        of one): every phase/band builds its encoder and weight polynomials
        once for the whole batch, and all homomorphic plaintext products of
        a band (items x channels x tiles x 2 ciphertext components) go
        through one backend ``multiply_many`` call -- with the batched
        backends of :mod:`repro.runtime` the transform work is batched and
        the weight spectra are computed once.

        Args:
            xs: clear activations ``B x C x H x W`` (or ``C x H x W``).
            w: server weights ``M x C x kh x kw``.
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material.

        Returns:
            one :class:`ProtocolResult` per batch item, in order (``[]``
            for an empty batch, without key generation or rng draws).
        """
        xs = np.asarray(xs)
        if xs.ndim == 3:
            xs = xs[None]
        if not len(xs):
            return []
        # Channel tiling accumulates at most in_channels partial sums.
        return self._run_guarded(xs, w, rng, session, self.shape.in_channels)

    def _run_once(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        party: _PartyPair,
    ) -> List[ProtocolResult]:
        from repro.nn.model import conv2d_int_batch

        ring = party.ring

        xs = np.asarray(xs, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        batch = xs.shape[0]
        stats = [ProtocolStats() for _ in range(batch)]
        expected = conv2d_int_batch(
            xs, w, self.shape.stride, self.shape.padding
        )
        if not ring.fits_signed(expected):
            raise ValueError(
                "convolution output overflows the sharing ring; "
                "increase the plaintext modulus"
            )

        shares = [ring.share(x, rng) for x in xs]
        xc_pads = [
            pad_input(ring.to_signed(c), self.shape.padding) for c, _ in shares
        ]
        xs_pads = [
            pad_input(ring.to_signed(sv), self.shape.padding) for _, sv in shares
        ]

        y_clients = [np.zeros_like(e) for e in expected]
        y_servers = [np.zeros_like(e) for e in expected]
        oh, ow = expected[0].shape[1], expected[0].shape[2]
        s = self.shape.stride
        for phase, a, b in decompose_strided(self.shape):
            xc_phase = [
                xp[:, a::s, b::s][:, : phase.height, : phase.width]
                for xp in xc_pads
            ]
            xs_phase = [
                xp[:, a::s, b::s][:, : phase.height, : phase.width]
                for xp in xs_pads
            ]
            w_phase = w[:, :, a::s, b::s]
            for row_start, band in iter_row_bands(phase, self.params.n):
                enc = Conv2dEncoder(band, self.params.n)
                rows = slice(row_start, row_start + band.height)
                ys = self._run_phase_batch(
                    party, enc,
                    [xc[:, rows, :] for xc in xc_phase],
                    [xv[:, rows, :] for xv in xs_phase],
                    w_phase, rng, stats,
                )
                for item, (yc, yv) in enumerate(ys):
                    r1 = min(row_start + yc.shape[1], oh)
                    pad_rows = r1 - row_start
                    if pad_rows <= 0:
                        continue
                    yc_full = np.zeros_like(y_clients[item])
                    ys_full = np.zeros_like(y_servers[item])
                    yc_full[:, row_start:r1, :ow] = yc[:, :pad_rows, :ow]
                    ys_full[:, row_start:r1, :ow] = yv[:, :pad_rows, :ow]
                    y_clients[item] = ring.add(y_clients[item], yc_full)
                    y_servers[item] = ring.add(y_servers[item], ys_full)

        return [
            ProtocolResult(
                client_share=y_clients[item],
                server_share=y_servers[item],
                reconstructed=ring.reconstruct(y_clients[item], y_servers[item]),
                expected=expected[item],
                stats=stats[item],
            )
            for item in range(batch)
        ]

    @obs_trace.traced("protocol.phase_batch")
    def _run_phase_batch(
        self,
        party: _PartyPair,
        enc: Conv2dEncoder,
        xc_items: List[np.ndarray],
        xs_items: List[np.ndarray],
        w: np.ndarray,
        rng: np.random.Generator,
        stats: List[ProtocolStats],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        ring = party.ring
        batch = len(xc_items)
        w_polys = enc.encode_weights(w)  # shared by the whole batch
        counts = enc.transforms_per_hconv()
        fulls = [
            self._send(
                party, enc.encode_input(xc_items[item]),
                enc.encode_input(xs_items[item]), counts, rng, stats[item],
            )
            for item in range(batch)
        ]

        out_channels = enc.shape.out_channels
        tiles = len(fulls[0])
        keys = [
            (item, m, tile)
            for item in range(batch)
            for m in range(out_channels)
            for tile in range(tiles)
        ]
        products = self._multiply(
            [(fulls[item][tile], w_polys[(tile, m)]) for item, m, tile in keys],
            stats,
        )

        # Uniform tiles share extraction indices, so one masked ciphertext
        # returns per (item, output channel).
        accs, owners = [], []
        for item in range(batch):
            for m in range(out_channels):
                first = (item * out_channels + m) * tiles
                acc = products[first]
                for prod in products[first + 1 : first + tiles]:
                    acc = party.ctx.add(acc, prod)
                accs.append(acc)
                owners.append(stats[item])
        messages, masks = self._return(party, accs, owners, rng)

        results: List[Tuple[np.ndarray, np.ndarray]] = []
        oh, ow = enc.shape.out_height, enc.shape.out_width
        for item in range(batch):
            y_client = np.zeros((out_channels, oh, ow), dtype=np.int64)
            y_server = np.zeros_like(y_client)
            for m in range(out_channels):
                i = item * out_channels + m
                y_client[m] = ring.reduce(enc.extract_output(messages[i]))
                y_server[m] = ring.reduce(enc.extract_output(masks[i]))
            results.append((y_client, y_server))
        return results


class HybridLinearProtocol(_HybridRound):
    """Private fully-connected layer ``y = W @ x`` (same one-round flow).

    ``shape`` is a :class:`LinearShape`; the other arguments are those of
    the shared round (see :class:`_HybridRound`).
    """

    default_layer_name = "linear"

    @obs_trace.traced("protocol.linear")
    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> ProtocolResult:
        """Evaluate ``w @ x`` privately and verify against plaintext."""
        return self._run_guarded([x], w, rng, session, 1)[0]

    def run_batch(
        self,
        xs,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> List[ProtocolResult]:
        """:meth:`run` on each item in order, one round per item."""
        return [self.run(x, w, rng, session=session) for x in xs]

    def _run_once(
        self,
        xs,
        w: np.ndarray,
        rng: np.random.Generator,
        party: _PartyPair,
    ) -> List[ProtocolResult]:
        ring = party.ring
        stats = ProtocolStats()

        x = np.asarray(xs[0], dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        expected = (w @ x).astype(np.int64)
        if not ring.fits_signed(expected):
            raise ValueError("matvec output overflows the sharing ring")

        x_client, x_server = ring.share(x, rng)
        enc = LinearEncoder(self.shape, self.params.n)
        w_polys = enc.encode_weights(w)
        fulls = self._send(
            party,
            enc.encode_input(ring.to_signed(x_client)),
            enc.encode_input(ring.to_signed(x_server)),
            enc.transforms_per_matvec(), rng, stats,
        )

        # Server side: every (chunk, group) product in one batch.
        keys = [
            (chunk, group)
            for chunk in range(len(fulls))
            for group in range(enc.num_row_groups)
        ]
        products = self._multiply(
            [(fulls[chunk], w_polys[(chunk, group)]) for chunk, group in keys],
            [stats],
        )
        messages, masks = self._return(
            party, products, [stats] * len(keys), rng
        )
        y_client = ring.reduce(enc.decode_output(dict(zip(keys, messages))))
        y_server = ring.reduce(enc.decode_output(dict(zip(keys, masks))))

        return [
            ProtocolResult(
                client_share=y_client,
                server_share=y_server,
                reconstructed=ring.reconstruct(y_client, y_server),
                expected=expected,
                stats=stats,
            )
        ]


def make_session(params: BfvParameters, rng: np.random.Generator) -> _PartyPair:
    """Generate reusable key material for a sequence of protocol runs."""
    return _PartyPair(params, rng)
