"""Segment replacement (SR) policies.

SR — discarding buffered segments and redownloading them at a different
quality — is section 4.1's deep dive.  Three policies are modelled:

* :class:`NoReplacement` — most services, and ExoPlayer v2's default.
* :class:`ExoV1Replacement` — the flawed scheme shared by H4, H1 and
  ExoPlayer v1: on an up-switch it finds the first buffered segment
  from a track lower than the newly selected one and, because the deque
  buffer cannot drop a middle element, discards *everything* from there
  on.  Segments after the first may have been higher quality than the
  new track, producing the lower-/equal-quality replacements (21.31 % /
  6.50 % of SR downloads) and even the replacement-induced stall of
  Figure 10.
* :class:`ImprovedReplacement` — the paper's best practice
  (section 4.1.3): consider one segment at a time, replace only with
  strictly higher quality, stop when the buffer drops below a
  threshold, optionally only touch segments at or below a quality cap
  (e.g. 720p) to limit wasted data.

Policies return an action; the player executes it.  ``DiscardTail``
relies only on deque semantics, ``ReplaceSingle`` requires the improved
buffer (``allow_mid_replacement=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Union

from repro.player.buffer import PlaybackBuffer


@dataclass(frozen=True)
class DiscardTail:
    """Drop ``from_index`` and all later segments, then refetch forward."""

    from_index: int


@dataclass(frozen=True)
class ReplaceSingle:
    """Redownload exactly ``index`` at ``level``, swapping it in place."""

    index: int
    level: int


ReplacementAction = Union[DiscardTail, ReplaceSingle]


@dataclass
class ReplacementContext:
    now: float
    buffer: PlaybackBuffer
    play_position_s: float
    buffer_s: float
    selected_level: int
    last_fetched_level: Optional[int]


class ReplacementPolicy(Protocol):
    def consider(self, ctx: ReplacementContext) -> Optional[ReplacementAction]: ...


# Fast-forward contract (see ``Player.idle_noop_ticks``): a policy that
# implements ``wake_time`` promises that ``consider`` returns None —
# without mutating any policy state — for every context that evolves
# from ``ctx`` by idle playback alone (position advances, buffer only
# drains, ``selected_level``/``last_fetched_level`` fixed) up to but
# excluding the returned time.  ``math.inf`` means "never during such a
# window"; returning ``ctx.now`` means "might act immediately".
# Policies without the method are never batched over.


class NoReplacement:
    """Never replace (ExoPlayer v2 default; most studied services)."""

    def consider(self, ctx: ReplacementContext) -> Optional[ReplacementAction]:
        return None

    def wake_time(self, ctx: ReplacementContext) -> float:
        return math.inf


class ExoV1Replacement:
    """The H4/ExoPlayer-v1 scheme: up-switch triggers a tail discard.

    ``cooldown_s`` rate-limits how often a cascade can start; without
    it every minor oscillation would re-trigger a full-tail refetch,
    far beyond the waste the paper measured for H4/H1.
    """

    def __init__(
        self,
        *,
        min_buffer_s: float = 20.0,
        protect_s: float = 3.0,
        cooldown_s: float = 90.0,
    ):
        self.min_buffer_s = min_buffer_s
        self.protect_s = protect_s
        self.cooldown_s = cooldown_s
        self._last_trigger_at: float | None = None

    def consider(self, ctx: ReplacementContext) -> Optional[ReplacementAction]:
        if ctx.last_fetched_level is None:
            return None
        if ctx.selected_level <= ctx.last_fetched_level:
            return None
        if ctx.buffer_s < self.min_buffer_s:
            return None
        if (
            self._last_trigger_at is not None
            and ctx.now - self._last_trigger_at < self.cooldown_s
        ):
            return None
        horizon = ctx.play_position_s + self.protect_s
        for segment in ctx.buffer.segments():
            if segment.start_s <= horizon:
                continue
            if segment.level < ctx.selected_level:
                self._last_trigger_at = ctx.now
                return DiscardTail(from_index=segment.index)
        return None

    def wake_time(self, ctx: ReplacementContext) -> float:
        if ctx.last_fetched_level is None:
            return math.inf
        if ctx.selected_level <= ctx.last_fetched_level:
            return math.inf
        if ctx.buffer_s < self.min_buffer_s:
            return math.inf  # the buffer only drains while idle
        if (
            self._last_trigger_at is not None
            and ctx.now - self._last_trigger_at < self.cooldown_s
        ):
            return self._last_trigger_at + self.cooldown_s
        # Eligibility only shrinks as the protect horizon advances, so a
        # scan that finds nothing now finds nothing for the whole window.
        horizon = ctx.play_position_s + self.protect_s
        for segment in ctx.buffer.segments():
            if segment.start_s <= horizon:
                continue
            if segment.level < ctx.selected_level:
                return ctx.now
        return math.inf


class ImprovedReplacement:
    """The paper's best-practice SR (section 4.1.3).

    One segment at a time, strictly-higher quality only, halted below a
    buffer threshold, optionally capped so only segments whose current
    height is <= ``quality_cap_height`` are ever replaced.
    """

    def __init__(
        self,
        *,
        min_buffer_s: float = 15.0,
        protect_s: float = 5.0,
        cooldown_s: float = 8.0,
        quality_cap_height: int | None = None,
    ):
        self.min_buffer_s = min_buffer_s
        self.protect_s = protect_s
        self.cooldown_s = cooldown_s
        self.quality_cap_height = quality_cap_height
        self._last_replacement_at: float | None = None

    def consider(self, ctx: ReplacementContext) -> Optional[ReplacementAction]:
        if ctx.buffer_s < self.min_buffer_s:
            return None
        if (
            self._last_replacement_at is not None
            and ctx.now - self._last_replacement_at < self.cooldown_s
        ):
            return None
        horizon = ctx.play_position_s + self.protect_s
        for segment in ctx.buffer.segments():
            if segment.start_s <= horizon:
                continue
            if segment.level >= ctx.selected_level:
                continue
            if (
                self.quality_cap_height is not None
                and segment.height is not None
                and segment.height > self.quality_cap_height
            ):
                continue
            self._last_replacement_at = ctx.now
            return ReplaceSingle(index=segment.index, level=ctx.selected_level)
        return None

    def wake_time(self, ctx: ReplacementContext) -> float:
        if ctx.buffer_s < self.min_buffer_s:
            return math.inf  # the buffer only drains while idle
        if (
            self._last_replacement_at is not None
            and ctx.now - self._last_replacement_at < self.cooldown_s
        ):
            return self._last_replacement_at + self.cooldown_s
        horizon = ctx.play_position_s + self.protect_s
        for segment in ctx.buffer.segments():
            if segment.start_s <= horizon:
                continue
            if segment.level >= ctx.selected_level:
                continue
            if (
                self.quality_cap_height is not None
                and segment.height is not None
                and segment.height > self.quality_cap_height
            ):
                continue
            return ctx.now
        return math.inf
