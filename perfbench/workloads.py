"""Seeded inputs for the benchmark workloads.

Each workload's corpus is fixed (rendered from ``BANK_SEED``); the run
seed picks the arrival order (on Spark, also which logs share a
partition). Training does not depend on order, so every seed trains the
same model. Drawing the corpus from the run seed changes the workload
itself: over five seeds Thunderbird's grouping accuracy moved between
0.61 and 0.98 and the web-access query sweep between 20 and 65 ms,
properties of the inputs that would swamp the timing spread. The program
only ever sees the generated messages.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

import pandas as pd

from repro.logs.corpus import LOGHUB2
from repro.logs.production import production_corpus
from repro.logs.synthgen import TemplateBank, make_bank, render_corpus

BANK_SEED = 0

#: Sizes, chosen so that a whole run (set-up rounds, cold and warm passes,
#: and on Spark the JVM start and parity check) fits the benchmark's time
#: budget and a sequential pass takes about two seconds, so that a run
#: holds enough warm passes for their median to be steady; see
#: perfbench/README.md.
THUNDERBIRD_LOGS = 10_000
WEB_ACCESS_MB = 1.0


@dataclass
class Inputs:
    """What one workload feeds the program."""

    train: list[str]  # messages the model is trained on
    stream: list[str]  # messages matched, in arrival order
    labels: list | None  # ground-truth template per stream message

    @property
    def frame(self) -> pd.DataFrame:
        """The stream as the (log_id, message) frame the Spark path reads."""
        return pd.DataFrame({"log_id": range(len(self.stream)), "message": self.stream})


@cache
def _thunderbird_bank() -> TemplateBank:
    return make_bank("Thunderbird-2.0", LOGHUB2["Thunderbird"][1], seed=BANK_SEED)


def thunderbird_seq(seed: int) -> Inputs:
    corpus = render_corpus(_thunderbird_bank(), THUNDERBIRD_LOGS, seed=BANK_SEED)
    rows = list(zip(corpus["message"], corpus["template_id"].tolist()))
    random.Random(seed).shuffle(rows)
    msgs = [m for m, _ in rows]
    return Inputs(msgs, msgs, [t for _, t in rows])


def web_access_spark(seed: int) -> Inputs:
    msgs = production_corpus("web-access-high", target_mb=WEB_ACCESS_MB, seed=BANK_SEED)["message"].tolist()
    random.Random(seed).shuffle(msgs)
    return Inputs(msgs, msgs, None)


def prepare(workload: str) -> None:
    """Build the workload's template bank. It defines the workload, is the
    same for every seed and takes seconds to build, so it is built once
    per process, before the timed set-up rounds."""
    if workload == "thunderbird-seq":
        _thunderbird_bank()


#: workload name -> (input builder, uses the Spark path)
WORKLOADS = {
    "thunderbird-seq": (thunderbird_seq, False),
    "web-access-spark": (web_access_spark, True),
}
