"""Bring your own kernel: build a program with the builder API, trace the
compression events, and verify transparency against the uncompressed run.

Shows the lower-level APIs a systems researcher would script against:
``ProgramBuilder``, the tracer's event stream, per-block compression
stats, and the footprint timeline.

Run with::

    python examples/custom_kernel.py
"""

from repro import ProgramBuilder, SimulationConfig, api, build_cfg
from repro.compress import measure_image, get_codec
from repro.isa import instructions as ins


def build_program():
    """A two-phase kernel: a hot loop, then a cold post-processing tail."""
    b = ProgramBuilder("custom")
    b.label("main")
    b.emit(ins.li(1, 64), ins.li(2, 0))

    b.label("hot_loop")
    b.emit(
        ins.add(2, 2, 1),
        ins.andi(3, 1, 1),
        ins.beq(3, 0, "even"),
        ins.addi(2, 2, 3),
        ins.jmp("next"),
    )
    b.label("even")
    b.emit(ins.subi(2, 2, 1))
    b.label("next")
    b.emit(ins.subi(1, 1, 1), ins.bne(1, 0, "hot_loop"))

    # Cold tail: executed once; the k-edge policy recompresses the loop
    # blocks while this runs.
    b.label("cold_tail")
    for step in range(6):
        b.emit(
            ins.muli(4, 2, step + 2),
            ins.xori(4, 4, 0x55),
            ins.add(5, 5, 4),
        )
    b.emit(ins.mov(14, 5), ins.halt())
    return b.build()


def main() -> None:
    program = build_program()
    cfg = build_cfg(program)
    print(f"built '{program.name}': {len(program)} instructions, "
          f"{len(cfg.blocks)} basic blocks\n")

    # Static compressibility per block.
    stats = measure_image(cfg.blocks, get_codec("shared-dict"))
    print(f"static image: {stats.original_size} B -> "
          f"{stats.compressed_size} B "
          f"(ratio {stats.ratio:.2f})")

    # Uncompressed reference.
    _, baseline = api.run_instrumented(
        cfg, SimulationConfig(decompression="none")
    )

    # Compressed run with span tracing armed; the tracer holds the
    # event stream (faults, fills, patches, recompressions) afterwards.
    result, tracer = api.run_traced(
        cfg,
        SimulationConfig(
            decompression="pre-single", k_compress=3, k_decompress=2,
        ),
    )

    assert result.registers == baseline.registers, "transparency violated!"
    print(f"result r14 = {result.registers[14]} (matches baseline)\n")

    print("first 20 compression events:")
    print(tracer.render(limit=20))

    recompressions = tracer.events("recompress")
    print(f"\n{len(recompressions)} recompressions; "
          f"{result.counters.faults} faults; "
          f"overhead {result.cycle_overhead:.1%}; "
          f"avg footprint {result.average_footprint:.0f} B "
          f"of {cfg.total_size_bytes()} B uncompressed")

    print("\nfootprint timeline (cycle, bytes):")
    samples = result.footprint.samples
    step = max(1, len(samples) // 10)
    for cycle, footprint in samples[::step]:
        print(f"  @{cycle:>7}  {footprint:>5} B")


if __name__ == "__main__":
    main()
