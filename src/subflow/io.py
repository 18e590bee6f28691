"""Every data file format: binary checkpoints, run manifests, CSV files
(all written by `write_csv`) and SVG scatters.  No other module reads or
writes a data file; the config's text format lives in config.py.

Checkpoint layout (all little-endian):
  magic b"SFLW" | version u32 | descriptor length u32 | descriptor JSON |
  parameter f64 array | EMA f64 array.
The JSON descriptor carries the net configuration, the parameter layout,
the training step, the run metadata (objective, conditioning, source_std)
and `submode_counts`, the training points per sub-mode of each class in
class-id order: a checkpoint alone drives inference, its sub-mode priors
being the counts' shares.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .clustering import SubmodeTable
from .net import NetConfig, VelocityNet
from .objectives import CONDITIONINGS, OBJECTIVES

CHECKPOINT_MAGIC = b"SFLW"
CHECKPOINT_VERSION = 2


def save_checkpoint(path, net: VelocityNet, ema_params: np.ndarray, step: int,
                    meta: dict, table: SubmodeTable) -> None:
    descriptor = {
        "net": asdict(net.config),
        "layout": [[name, list(shape)] for name, shape in net.layout],
        "num_params": net.num_params,
        "step": step,
        "meta": meta,
        "submode_counts": [table.per_class[c].counts.tolist()
                           for c in range(net.config.num_classes)],
    }
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(net.params.astype("<f8").tobytes())
        fh.write(np.asarray(ema_params).astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (net, ema_params, step, meta, table).

    A directory, or a file that is not exactly one checkpoint (bad magic
    or version, a header or array cut short, bytes after the EMA array, a
    descriptor that is not UTF-8 JSON with every key and a valid net, run
    metadata without a known objective and conditioning and a finite
    positive source_std, submode_counts not one list per class of 1..K
    integers >= 0 with a positive sum, or parameters or EMA that are not
    all finite) raises ValueError naming the path.
    """
    try:
        data = Path(path).read_bytes()
    except IsADirectoryError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(data) < 12:
        raise ValueError(f"{path}: checkpoint header cut short")
    version, blob_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    start = 12 + blob_len
    if len(data) < start:
        raise ValueError(f"{path}: checkpoint header cut short")
    try:
        descriptor = json.loads(data[12:start].decode("utf-8"))
        net = VelocityNet(NetConfig(**descriptor["net"]))
        n, layout = descriptor["num_params"], descriptor["layout"]
        step, meta = descriptor["step"], descriptor["meta"]
        if not (meta["objective"] in OBJECTIVES
                and meta["conditioning"] in CONDITIONINGS
                and 0.0 < meta["source_std"] < math.inf):
            raise ValueError(f"bad run metadata {meta!r}")
        counts, k = descriptor["submode_counts"], net.config.num_submodes
        # bool is an int, and int64 truncates a float
        if not (type(counts) is list and len(counts) == net.config.num_classes
                and all(type(row) is list and 0 < len(row) <= k and all(
                    type(x) is int for x in row) for row in counts)):
            raise ValueError(f"submode_counts {counts!r}: not one list of "
                             f"1..{k} integers per class")
        table = SubmodeTable.from_counts(dict(enumerate(counts)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad checkpoint descriptor: {exc!r}") from exc
    if n != net.num_params or layout != [[name, list(shape)]
                                         for name, shape in net.layout]:
        raise ValueError(f"{path}: layout descriptor mismatch")
    if len(data) != start + 16 * n:
        raise ValueError(
            f"{path}: {len(data)} bytes, expected {start + 16 * n} for "
            f"{n} parameters and their EMA")
    net.params[:] = np.frombuffer(data, "<f8", n, start)
    ema = np.frombuffer(data, "<f8", n, start + 8 * n).astype(np.float64)
    if not (np.isfinite(net.params).all() and np.isfinite(ema).all()):
        raise ValueError(f"{path}: parameters or EMA not all finite")
    return net, ema, step, meta, table


# ---- run manifests -------------------------------------------------------

def _checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# manifest JSON key -> (RunManifest field, JSON type)
_MANIFEST_KEYS = {"run_id": ("run_id", str), "config": ("config_text", str),
                  "seed": ("seed", int), "files": ("files", dict),
                  "checksums": ("checksums", dict),
                  "duration_s": ("duration_s", (int, float))}
# keys that older manifests lack -> (RunManifest field, type of each value)
_LATER_KEYS = {"stages_s": ("stages_s", (int, float)),
               "environment": ("environment", (str, int, type(None)))}


@dataclass
class RunManifest:
    run_id: str
    config_text: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    checksums: dict[str, str] = field(default_factory=dict)
    duration_s: float = 0.0
    # wall seconds of each stage of the run, by stage name
    stages_s: dict[str, float] = field(default_factory=dict)
    # the build and threads the run ran on (`pipeline.environment`)
    environment: dict = field(default_factory=dict)

    def add_file(self, label: str, path) -> None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"manifest file {path} does not exist")
        self.files[label] = str(path)
        self.checksums[label] = _checksum(path)

    def write(self, path) -> None:
        """Files beside the manifest go by name, so a run directory moves."""
        payload = {key: getattr(self, name) for key, (name, _)
                   in [*_MANIFEST_KEYS.items(), *_LATER_KEYS.items()]}
        here = Path(path).parent
        payload["files"] = {label: Path(p).name if Path(p).parent == here
                            else p for label, p in self.files.items()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @staticmethod
    def read(path) -> "RunManifest":
        """A directory, a file that is not a JSON object, or one that lacks
        a key or holds a value of the wrong type raises ValueError naming
        it.  run_id and config are strings, seed an integer, duration_s a
        number, and files and checksums map the same labels to strings.
        stages_s, when present, maps names to numbers, and environment
        names to strings, integers or null; a manifest written before
        they existed reads with both empty.  Other keys are ignored.  A
        relative file entry names a path in the manifest's directory."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
            values = {}
            for key, (name, kinds) in _MANIFEST_KEYS.items():
                value = payload[key]
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise TypeError(f"{key} is {value!r}")
                values[name] = value
            for key, (name, kinds) in _LATER_KEYS.items():
                value = payload.get(key, {})
                if not (isinstance(value, dict) and all(
                        not isinstance(v, bool) and isinstance(v, kinds)
                        for v in value.values())):
                    raise TypeError(f"{key} is {value!r}")
                values[name] = value
            files, checksums = values["files"], values["checksums"]
            if files.keys() != checksums.keys() or not all(
                    isinstance(v, str)
                    for v in [*files.values(), *checksums.values()]):
                raise TypeError("files and checksums do not map the same "
                                "labels to strings")
            values["files"] = {label: str(Path(path).parent / p)
                               for label, p in files.items()}
            return RunManifest(**values)
        except (IsADirectoryError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a run manifest: {exc!r}") from exc

    def check(self) -> list[str]:
        """Labels of listed files that are missing, not files, or changed."""
        return [label for label, path in self.files.items()
                if not Path(path).is_file()
                or _checksum(path) != self.checksums[label]]


# ---- CSV files -----------------------------------------------------------

def write_csv(path, header: list, rows, append: bool = False) -> None:
    """The one CSV writer: `header`, then `rows`.  With `append`, the rows
    go at the end of an existing file, and the header only starts a new
    one."""
    new = not (append and Path(path).exists())
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        writer.writerows(rows)


def write_loss_csv(path, losses: np.ndarray) -> None:
    write_csv(path, ["step", "loss"],
              ([i, repr(float(loss))] for i, loss in enumerate(losses)))


def write_samples_csv(path, batch) -> None:
    write_csv(path, ["sample_index", "class_id", "submode_id", "x", "y"],
              ([i, int(c), int(k), repr(float(x)), repr(float(y))]
               for i, (c, k, (x, y)) in enumerate(zip(
                   batch.class_ids, batch.submode_ids, batch.xs))))


def write_assignments_csv(path,
                          labels_by_class: dict[int, np.ndarray]) -> None:
    write_csv(path, ["sample_index", "class_id", "submode_id"],
              ([i, class_id, int(label)]
               for class_id in sorted(labels_by_class)
               for i, label in enumerate(labels_by_class[class_id])))


# the MetricReport columns of the metrics, sweep and grid CSVs
REPORT_FIELDS = ["frechet", "precision", "recall", "mode_tv",
                 "coverage_count", "field_rmse"]


def append_report_csv(path, report, run_id: str, nfe: int,
                      w: float) -> None:
    """One row: floats as their shortest repr, a missing field_rmse as an
    empty cell."""
    rmse = "" if report.field_rmse is None else repr(float(report.field_rmse))
    write_csv(path, ["run_id", "nfe", "w", *REPORT_FIELDS],
              [[run_id, nfe, repr(w), repr(float(report.frechet)),
                repr(float(report.precision)), repr(float(report.recall)),
                repr(float(report.mode_tv)), report.coverage_count, rmse]],
              append=True)


# ---- SVG scatter ---------------------------------------------------------

PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#ff7f0e",
           "#9467bd", "#8c564b", "#e377c2", "#17becf"]
VIEWPORT = 800


def write_scatter_svg(path, real: np.ndarray, gen: np.ndarray,
                      gen_submodes: np.ndarray, bbox) -> None:
    """Real points in gray under generated points colored by sub-mode."""
    xmin, ymin, xmax, ymax = bbox
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 20.0
    scale = (VIEWPORT - 2 * margin) / span

    def to_view(p):
        # y axis flipped so larger y is drawn higher
        vx = margin + (p[0] - xmin) * scale
        vy = VIEWPORT - margin - (p[1] - ymin) * scale
        return vx, vy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" '
        f'height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>',
    ]
    for p in np.asarray(real):
        vx, vy = to_view(p)
        parts.append(f'<circle cx="{vx:.2f}" cy="{vy:.2f}" r="1.5" '
                     f'fill="#bbbbbb" fill-opacity="0.5"/>')
    for p, k in zip(np.asarray(gen), np.asarray(gen_submodes)):
        color = PALETTE[int(k) % len(PALETTE)] if k >= 0 else PALETTE[0]
        vx, vy = to_view(p)
        parts.append(f'<circle cx="{vx:.2f}" cy="{vy:.2f}" r="2" '
                     f'fill="{color}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def new_run_id(prefix: str, config_text: str, seed: int) -> str:
    """Deterministic run id: same config and seed always map to the same id.

    Re-running an identical experiment overwrites its own artifacts instead
    of accumulating near-duplicates, which also keeps full-pipeline reruns
    byte-identical.
    """
    digest = hashlib.sha256(f"{config_text}\n{seed}".encode()).hexdigest()[:10]
    return f"{prefix}-{digest}"
