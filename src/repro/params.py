"""Global algorithm parameters (Equation (1) of the paper) with presets.

The paper fixes, in Equation (1):

    eps   = 1/2000
    delta = gamma_{4.5} / 300
    Delta_low = Theta(log^21 n)
    ell   = Theta(log^1.1 n)

and, around them,

    r_K   = 250 * max(e~_K, ell)          (Equation (2), reserved colors)
    ell_s = Theta(ell^3),  b = 256 * ell_s^6   (Equation (11), donor blocks)

These literal constants make the high-degree regime (Delta >= Delta_low)
unreachable on any machine that exists: ``log^21 n`` exceeds ``10^27`` at
``n = 10^6``.  Reproductions of asymptotic results therefore run with
*scaled* constants preserving every relationship the proofs rely on:

* ``r_K`` stays a constant multiple of ``max(e~_K, ell)`` and is capped by a
  constant fraction of ``Delta`` (the paper's ``r_K <= 300 eps Delta``);
* put-aside sets have size ``r`` and cabals are almost-cliques with
  ``e~_K < ell``;
* donor blocks are polynomially larger than ``ell`` so the union bounds of
  Section 7 still have room to work at laptop scale.

Both presets are available; experiments record which one they used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def log_star(n: float) -> int:
    """Iterated logarithm (base 2): number of times ``log2`` must be applied
    to ``n`` before the result drops to at most 1.

    ``log_star`` is the round-complexity yardstick of Theorem 1.2.
    """
    if n <= 1:
        return 0
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return count


def log2ceil(n: int) -> int:
    """Number of bits needed to write ``n`` distinct values (at least 1)."""
    if n <= 1:
        return 1
    return int(math.ceil(math.log2(n)))


@dataclass(frozen=True)
class AlgorithmParameters:
    """All tunable constants of the coloring algorithm in one place.

    Attributes mirror the paper's notation:

    * ``eps`` -- the almost-clique decomposition parameter (Definition 4.2).
    * ``delta`` -- relative error tolerated by degree approximations.
    * ``slack_activation`` -- ``p_g`` of Algorithm 18 (SlackGeneration).
    * ``reserved_multiplier`` -- the ``250`` of Equation (2).
    * ``reserved_cap_mult`` -- the ``300`` of ``r_K <= 300 eps Delta``.
    * ``ell_coeff``/``ell_exp`` -- ``ell = ell_coeff * log^ell_exp n``.
    * ``delta_low_coeff``/``delta_low_exp`` -- ``Delta_low`` threshold.
    * ``ell_s_coeff``/``ell_s_exp`` -- ``ell_s = ell_s_coeff * ell^ell_s_exp``
      (Equation (11); the paper uses ``Theta(ell^3)``).
    * ``block_coeff``/``block_exp`` -- donor block size
      ``b = block_coeff * ell_s^block_exp`` (paper: ``256 * ell_s^6``).
    * ``fingerprint_trials_coeff`` -- trials per sketch, ``t = coeff * log n``.
    * ``bandwidth_coeff`` -- link bandwidth is ``bandwidth_coeff * ceil(log2 n)``
      bits per round.
    * ``mct_slack_coeff`` -- minimum slack (in units of ``log n`` for the
      paper, scaled down here) required by MultiColorTrial's Lemma D.1.
    * ``max_stage_retries`` -- fallback discipline (docs/ARCHITECTURE.md, D3).
    """

    name: str
    eps: float
    delta: float
    slack_activation: float
    reserved_multiplier: float
    reserved_cap_mult: float
    ell_coeff: float
    ell_exp: float
    delta_low_coeff: float
    delta_low_exp: float
    ell_s_coeff: float
    ell_s_exp: float
    block_coeff: float
    block_exp: float
    fingerprint_trials_coeff: float
    bandwidth_coeff: int
    mct_slack_coeff: float
    max_stage_retries: int = 3
    tau_mult: float = 4.0  # tau = tau_mult * eps (Section 6)
    xi_floor: float = 0.0  # clamp requested sketch accuracy (scaled preset)
    trials_cap: int = 1 << 20  # hard cap on sketch width
    # Buddy-edge detection margin for the ACD (Lemma 5.8's xi).  The paper
    # uses Theta(eps); at laptop scale the detection margin must exceed the
    # sketch noise, so the scaled preset widens it -- valid because planted
    # almost-cliques are far tighter than (1 - 2 xi)Delta-friendly.
    acd_detection_xi: float = 0.01
    # Section 7 donor machinery.  donor_activation is the paper's
    # p = 50 ell_s^3 / b (vanishing under the paper's hierarchy; a constant
    # at laptop scale -- the *correctness* filter is Step 3 of Algorithm 9
    # either way).  donor_quota is the S_i size threshold playing the role
    # of the paper's ell_s in Lemma 7.3 Property 4.  donor_max_blocks caps
    # the number of color blocks so per-block donor populations stay
    # meaningful when Delta is only hundreds (the paper's b = 256 ell_s^6 is
    # a poly log that its Delta >= log^21 n regime dwarfs).
    donor_activation: float = 0.5
    donor_quota_coeff: float = 0.25
    donor_max_blocks: int | None = None

    # ---- derived quantities ------------------------------------------------

    def ell(self, n: int) -> int:
        """Cabal threshold ``ell`` (Equation (1))."""
        base = max(2.0, math.log2(max(n, 2)))
        return max(1, int(math.ceil(self.ell_coeff * base**self.ell_exp)))

    def delta_low(self, n: int) -> int:
        """High-degree threshold ``Delta_low`` (Equation (1))."""
        base = max(2.0, math.log2(max(n, 2)))
        return max(2, int(math.ceil(self.delta_low_coeff * base**self.delta_low_exp)))

    def reserved_colors(self, e_tilde_k: float, n: int, delta: int) -> int:
        """``r_K = reserved_multiplier * max(e~_K, ell)`` capped at
        ``reserved_cap_mult * eps * Delta`` (Equation (2) and the remark
        following it).
        """
        raw = self.reserved_multiplier * max(e_tilde_k, float(self.ell(n)))
        cap = self.reserved_cap_mult * self.eps * delta
        return max(1, int(min(raw, cap)))

    def ell_s(self, n: int) -> int:
        """Safe-donor set size ``ell_s = Theta(ell^3)`` (Equation (11))."""
        return max(1, int(math.ceil(self.ell_s_coeff * self.ell(n) ** self.ell_s_exp)))

    def block_size(self, n: int) -> int:
        """Donor block size ``b`` (Equation (11))."""
        return max(2, int(math.ceil(self.block_coeff * self.ell_s(n) ** self.block_exp)))

    def fingerprint_trials(self, n: int, xi: float = 1.0) -> int:
        """Number of parallel geometric trials ``t = Theta(xi^-2 log n)``
        used by the fingerprinting estimator (Lemma 5.7).

        The count is capped at ``trials_cap`` -- the scaled regime's
        equivalent of not letting the ``xi^-2`` constant dwarf the instance.
        Requested ``xi`` below ``xi_floor`` is clamped first: at laptop scale
        the separation margins of the workloads exceed the paper's
        ``xi * Delta``, so coarser sketches keep the same discrimination
        power (docs/ARCHITECTURE.md, D2).
        """
        xi_eff = max(xi, self.xi_floor)
        base = max(2.0, math.log2(max(n, 2)))
        raw = int(math.ceil(self.fingerprint_trials_coeff * base / (xi_eff * xi_eff)))
        return min(self.trials_cap, max(8, raw))

    def bandwidth_bits(self, n: int) -> int:
        """Per-link per-round bandwidth: ``O(log n)`` bits."""
        return self.bandwidth_coeff * log2ceil(max(n, 2))

    def tau(self) -> float:
        """``tau = 4 eps``: the anti-degree quantile of Section 6."""
        return self.tau_mult * self.eps

    def donor_quota(self, n: int) -> int:
        """Minimum safe-donor set size (Lemma 7.3 Property 4's ``ell_s``,
        scaled)."""
        return max(3, int(math.ceil(self.donor_quota_coeff * self.ell(n))))

    def donation_samples(self, n: int) -> int:
        """``k = Theta(log n / loglog n)`` donation attempts (Section 7,
        Step 4)."""
        base = max(4.0, math.log2(max(n, 4)))
        return max(6, int(math.ceil(base / max(1.0, math.log2(base)))))

    def donor_block_size(self, n: int, delta: int) -> int:
        """Donor block width ``b`` (Equation (11)), clamped so at most
        ``donor_max_blocks`` blocks partition ``[Delta+1]`` when set."""
        b = self.block_size(n)
        if self.donor_max_blocks is not None:
            b = max(b, int(math.ceil((delta + 1) / self.donor_max_blocks)))
        return min(b, delta + 1)



def paper() -> AlgorithmParameters:
    """The literal constants of Equation (1).

    Only useful for checking formulas: ``Delta_low`` is astronomically large,
    so the high-degree pipeline never triggers with this preset.
    """
    gamma_45 = 0.01  # existential constant of Proposition 4.5; proofs only
    return AlgorithmParameters(
        name="paper",
        eps=1.0 / 2000.0,
        delta=gamma_45 / 300.0,
        slack_activation=1.0 / 200.0,
        reserved_multiplier=250.0,
        reserved_cap_mult=300.0,
        ell_coeff=1.0,
        ell_exp=1.1,
        delta_low_coeff=1.0,
        delta_low_exp=21.0,
        ell_s_coeff=1.0,
        ell_s_exp=3.0,
        block_coeff=256.0,
        block_exp=6.0,
        fingerprint_trials_coeff=4.0,
        bandwidth_coeff=4,
        mct_slack_coeff=1.0,
        acd_detection_xi=1.0 / 2000.0 / 3.0,
        donor_activation=0.01,
        donor_quota_coeff=2.0,
        donor_max_blocks=None,
    )


def scaled() -> AlgorithmParameters:
    """Laptop-scale constants preserving the proofs' relationships.

    ``eps = 1/10`` keeps almost-cliques meaningfully dense while leaving the
    buddy-predicate margins (``Theta(eps Delta)``) wide enough for planted
    instances of a few hundred vertices to decompose correctly;
    ``Delta_low = 4 log^2 n`` makes the high-degree regime reachable at
    ``n >= ~500`` with moderate degrees; ``ell = 2 log n`` keeps cabals
    plentiful in dense instances.  Donor-block constants are shrunk in
    lockstep (``ell_s = ell``, ``b = 4 ell_s``) so Section 7's machinery is
    exercised rather than vacuously satisfied.
    """
    return AlgorithmParameters(
        name="scaled",
        eps=1.0 / 10.0,
        delta=1.0 / 30.0,
        slack_activation=1.0 / 4.0,
        reserved_multiplier=2.0,
        reserved_cap_mult=3.0,
        ell_coeff=0.75,
        ell_exp=1.0,
        delta_low_coeff=0.5,
        delta_low_exp=2.0,
        ell_s_coeff=4.0,
        ell_s_exp=1.0,
        block_coeff=4.0,
        block_exp=1.0,
        fingerprint_trials_coeff=2.0,
        bandwidth_coeff=8,
        mct_slack_coeff=0.25,
        xi_floor=0.0625,
        trials_cap=4096,
        acd_detection_xi=0.25,
        donor_activation=0.5,
        donor_quota_coeff=0.25,
        donor_max_blocks=2,
    )


DEFAULT = scaled()
