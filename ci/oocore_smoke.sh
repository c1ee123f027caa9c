#!/usr/bin/env bash
# Out-of-core smoke pass (ctest target io.oocore_smoke): runs the same
# postmortem workload twice through pmpr_run — once fully in RAM, once with
# --storage out-of-core under a hard --memory-budget-mb far smaller than
# the compressed working set — and asserts that
#   * the paged run completes and its checksum line is BYTE-identical to
#     the in-RAM run's (the bit-identical-ranks guarantee, end to end),
#   * paging actually happened (evictions > 0: the budget really was
#     smaller than the working set, so the run could not just cache
#     everything),
#   * the paged run reports a peak resident payload within the budget,
#   * the *measured* (mincore page scan of the mapped parts' payloads)
#     residency never exceeds the charged peak — the charge-based policy
#     is audited against ground truth, not just against itself,
#   * peak RSS stays sane (a paged run must not quietly materialize the
#     whole raw representation: its maxrss is capped relative to the
#     in-RAM run's).
# Keeps the --memory-budget-mb paging policy from silently rotting into
# "load everything anyway".
set -euo pipefail

BIN=${1:?usage: oocore_smoke.sh <pmpr_run binary> [out_dir]}
OUT=${2:-.}

IN_RAM="$OUT/OOCORE_in_ram.txt"
PAGED="$OUT/OOCORE_paged.txt"

# Scale 0.5 wiki-talk, 16 parts: a compressed working set of dozens of
# KiB against a 0 MiB budget (= page one part at a time) — every part
# acquisition beyond the first must evict.
COMMON=(--model postmortem --dataset wiki-talk --scale 0.5
        --max-windows 64 --parts 16)

"$BIN" "${COMMON[@]}" --storage in-ram > "$IN_RAM"
"$BIN" "${COMMON[@]}" --storage out-of-core --memory-budget-mb 0 > "$PAGED"

python3 - "$IN_RAM" "$PAGED" <<'EOF'
import re
import sys

def parse(path):
    fields = {}
    with open(path) as f:
        for line in f:
            if ":" in line:
                key, _, rest = line.partition(":")
                fields[key.strip()] = rest.strip()
    return fields

in_ram = parse(sys.argv[1])
paged = parse(sys.argv[2])

# 1. Bit-identical ranks: the checksum line embeds a %.17g digest of every
# window's score vector — byte equality means the paged run reproduced the
# in-RAM ranks exactly.
assert "checksum" in in_ram and "checksum" in paged, \
    f"missing checksum lines: {in_ram.keys()} / {paged.keys()}"
assert in_ram["checksum"] == paged["checksum"], (
    "paged ranks diverge from in-RAM: "
    f"{in_ram['checksum']!r} vs {paged['checksum']!r}")

# 2. The paged run actually paged.
oo = paged.get("oocore", "")
m = re.search(r"(\d+) evictions", oo)
assert m, f"no eviction count in oocore line: {oo!r}"
evictions = int(m.group(1))
assert evictions > 0, \
    f"no evictions — the budget was not smaller than the working set: {oo!r}"

# 3. Peak resident payload obeys the budget: under --memory-budget-mb 0
# the cap is the largest single part, so the peak must be well under the
# full store size.
sizes = re.search(
    r"store ([\d.]+) MiB / raw ([\d.]+) MiB .*peak resident ([\d.]+) MiB",
    oo)
assert sizes, f"cannot parse oocore sizes: {oo!r}"
store_mib, raw_mib, peak_mib = map(float, sizes.groups())
assert store_mib < raw_mib, \
    f"compressed store not smaller than raw: {oo!r}"
assert peak_mib <= store_mib, \
    f"peak resident exceeds the whole store: {oo!r}"

# 4. Measured residency honors the charge. The "residency" line carries
# the mincore-scanned peak next to the charged peak. The scan covers only
# the payloads of the parts mapped at that moment and counts only their
# own bytes (never whole pages past a payload's ends), so it cannot exceed
# the charge; what this catches is the scan counting unmapped parts, which
# the store file's page cache keeps resident after the build wrote them.
res = paged.get("residency", "")
mres = re.search(r"measured peak (\d+) bytes .*vs charged (\d+) bytes", res)
assert mres, f"cannot parse residency line: {res!r}"
measured_b, charged_b = int(mres.group(1)), int(mres.group(2))
assert measured_b > 0, f"mincore scan saw nothing resident: {res!r}"
assert measured_b <= charged_b, (
    f"measured store residency {measured_b} B exceeds the "
    f"{charged_b} B budget charge")

# 5. Real memory: the paged process must not use substantially more than
# the in-RAM run (it holds strictly less graph data; allow 1.5x slack for
# allocator noise on a small-footprint run).
m_ram = re.search(r"(\d+) bytes", in_ram.get("maxrss", ""))
m_paged = re.search(r"(\d+) bytes", paged.get("maxrss", ""))
assert m_ram and m_paged, "missing maxrss lines"
rss_ram, rss_paged = int(m_ram.group(1)), int(m_paged.group(1))
assert rss_paged <= rss_ram * 1.5, (
    f"paged run RSS {rss_paged} not bounded by in-RAM run RSS {rss_ram}")

print(f"oocore smoke OK: checksum match, {evictions} evictions, "
      f"store {store_mib} MiB / raw {raw_mib} MiB, "
      f"peak resident {peak_mib} MiB "
      f"(measured {measured_b} B vs charged {charged_b} B), "
      f"RSS {rss_paged} vs {rss_ram} bytes")
EOF
