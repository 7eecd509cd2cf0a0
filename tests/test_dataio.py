import csv
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from enflow import (
    ENERGY_CARRIERS,
    DataFormatError,
    DatasetManifest,
    MrioPeriod,
    NetworkShape,
    SourceClass,
    SyntheticSpec,
    ValidationError,
    bundled_codebook,
    build_temporal_network,
    consumption_summary,
    export_results,
    generate_synthetic,
    input_coefficients,
    load_dataset,
    load_energy,
    load_network,
    save_dataset,
    save_network,
    spectral_radius_estimate,
)
from enflow.dataio import CodeBook, MrioDataset, load_code_list

from accounts import demand_dict, energy_array, energy_dict


def small_spec(**kw):
    defaults = dict(shape=NetworkShape(3, 2, 2), density=0.6, seed=5)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def read_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


# ---------------------------------------------------------------------------
# bundled code lists
# ---------------------------------------------------------------------------


def test_bundled_codebook_scale():
    book = bundled_codebook()
    assert len(book.sectors) == 26
    assert len(book.countries) == 189
    assert book.sector_codes[0] == "AG"
    assert "USA" in book.country_codes
    assert "EGW" in book.sector_codes


def test_code_list_errors(tmp_path):
    bad = tmp_path / "codes.csv"
    bad.write_text("code,name\nAA,First\nAA,Second\n")
    with pytest.raises(DataFormatError, match="duplicate code"):
        load_code_list(bad)
    bad.write_text("wrong,header\n")
    with pytest.raises(DataFormatError, match="header"):
        load_code_list(bad)


@pytest.mark.parametrize("raw, message", [
    (b"code,name\nA\xff,x\n", r"codes\.csv:2: invalid UTF-8"),
    (b"code,name\nAFG,x\nALB,y,extra\n", r"codes\.csv:3: expected 2 fields, got 3"),
    (b"code,name\nAFG\n", r"codes\.csv:2: expected 2 fields, got 1"),
    (b"code,name\n\n , x\n", r"codes\.csv:3: empty code"),
])
def test_code_list_format_errors(tmp_path, raw, message):
    (tmp_path / "codes.csv").write_bytes(raw)
    with pytest.raises(DataFormatError, match=message):
        load_code_list(tmp_path / "codes.csv")


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synthetic_deterministic(tmp_path):
    a = generate_synthetic(small_spec())
    b = generate_synthetic(small_spec())
    save_dataset(a, tmp_path / "a")
    save_dataset(b, tmp_path / "b")
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


def test_synthetic_full_density_is_dense():
    ds = generate_synthetic(SyntheticSpec(shape=NetworkShape(2, 2, 1), density=1.0, seed=0))
    assert ds.periods[0].intermediate_use.nnz == 16


def test_synthetic_respects_rho_cap():
    for seed in range(50):
        ds = generate_synthetic(
            SyntheticSpec(shape=NetworkShape(2, 2, 1), density=0.7, seed=seed, rho_cap=0.8)
        )
        rho = spectral_radius_estimate(input_coefficients(ds.periods[0]))
        assert rho <= 0.8 + 1e-9


def test_synthetic_populates_both_classes():
    for seed in range(20):
        ds = generate_synthetic(small_spec(seed=seed, density=0.05))
        f = ds.periods[0].energy_consumption
        assert SourceClass.RENEWABLE.total(f).sum() > 0
        assert SourceClass.NONRENEWABLE.total(f).sum() > 0


def test_synthetic_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(shape=NetworkShape(2, 2, 1), density=0.0)
    with pytest.raises(ValidationError):
        SyntheticSpec(shape=NetworkShape(2, 2, 1), rho_cap=1.0)
    with pytest.raises(ValidationError):
        SyntheticSpec(shape=NetworkShape(2, 2, 1), source_mix={"coal": 1.0})
    with pytest.raises(ValidationError):
        SyntheticSpec(shape=NetworkShape(2, 2, 1), source_mix={"coal": 1.0, "wood": 1.0})


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_synthetic_spec_rejects_non_finite_and_negative_weights(weight):
    with pytest.raises(ValidationError, match="weights must be finite and >= 0"):
        SyntheticSpec(shape=NetworkShape(2, 2, 1),
                      source_mix={"coal": 1.0, "hydro": 1.0, "nuclear": weight})


# ---------------------------------------------------------------------------
# load / save round trip
# ---------------------------------------------------------------------------


def test_round_trip_byte_identical(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path / "first")
    loaded = load_dataset(DatasetManifest.from_json(manifest_path))
    assert loaded.labels == ds.labels
    save_dataset(loaded, tmp_path / "second")
    first = read_bytes(tmp_path / "first")
    second = read_bytes(tmp_path / "second")
    assert first == second
    # manifest too
    assert (tmp_path / "first/manifest.json").read_bytes() == (
        tmp_path / "second/manifest.json"
    ).read_bytes()


def test_load_values_survive(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    loaded = load_dataset(DatasetManifest.from_json(manifest_path))
    for original, reread in zip(ds.periods, loaded.periods):
        assert np.array_equal(
            original.intermediate_use.toarray(), reread.intermediate_use.toarray()
        )
        assert np.array_equal(original.total_output, reread.total_output)
        assert demand_dict(original) == demand_dict(reread)
        assert np.array_equal(original.energy_consumption, reread.energy_consumption)


def test_empty_transactions_gives_zero_coefficients(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    (tmp_path / "transactions.csv").write_text(
        "year,src_country,src_sector,dst_country,dst_sector,value\n"
    )
    loaded = load_dataset(DatasetManifest.from_json(manifest_path))
    for period in loaded.periods:
        assert period.intermediate_use.nnz == 0


def test_year_filter(tmp_path):
    ds = generate_synthetic(small_spec(shape=NetworkShape(2, 2, 4)))
    manifest_path = save_dataset(ds, tmp_path)
    manifest = DatasetManifest.from_json(manifest_path)
    import dataclasses

    manifest = dataclasses.replace(manifest, years=(1991, 1992))
    loaded = load_dataset(manifest)
    assert loaded.labels == (1991, 1992)


def test_unknown_country_code_names_line(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    path = tmp_path / "energy.csv"
    lines = path.read_text().splitlines()
    broken = lines[:3] + [lines[3].replace(lines[3].split(",")[1], "XXX", 1)] + lines[4:]
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(DataFormatError, match=r"energy\.csv:4.*XXX"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_negative_value_rejected(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    path = tmp_path / "outputs.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "-3.0"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"outputs\.csv:2.*negative"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_duplicate_key_rejected(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    path = tmp_path / "final_demand.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataFormatError, match="duplicate final demand"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_column_use_exceeding_output_rejected(tmp_path):
    ds = generate_synthetic(small_spec(density=1.0))
    manifest_path = save_dataset(ds, tmp_path)
    path = tmp_path / "outputs.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "1e-06"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"outputs\.csv.*uses"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_tiny_use_of_zero_output_rejected_with_its_line(tmp_path):
    # Use up to 1e-12 passes the slack of the column check, but not zero output.
    period = MrioPeriod(2000, NetworkShape(1, 2), np.zeros((2, 2)), np.ones(2), energy_array(2),
                        np.zeros((2, 2)))
    book = CodeBook(sectors=(("S1", "s"),), countries=(("C1", "c"), ("C2", "c")))
    manifest_path = save_dataset(MrioDataset(periods=(period,), codebook=book), tmp_path)
    (tmp_path / "transactions.csv").write_text(
        "year,src_country,src_sector,dst_country,dst_sector,value\n2000,C1,S1,C2,S1,1e-12\n"
    )
    outputs = tmp_path / "outputs.csv"
    header, first, second = outputs.read_text().splitlines()
    for body, where in (([first, "2000,C2,S1,0"], ":3"), ([first], "")):
        outputs.write_text("\n".join([header, *body]) + "\n")
        message = f"outputs.csv{where}: year 2000: column C2/S1 uses 1e-12 but output is 0.0"
        with pytest.raises(DataFormatError, match=message):
            load_dataset(DatasetManifest.from_json(manifest_path))


def test_unknown_source_rejected(tmp_path):
    ds = generate_synthetic(small_spec())
    manifest_path = save_dataset(ds, tmp_path)
    path = tmp_path / "energy.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[3] = "firewood"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="unknown energy source"):
        load_dataset(DatasetManifest.from_json(manifest_path))


def test_manifest_validation(tmp_path):
    with pytest.raises(ValidationError, match="missing keys"):
        path = tmp_path / "m.json"
        path.write_text("{}")
        DatasetManifest.from_json(path)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({
        "transactions": "nope.csv", "outputs": "o.csv",
        "energy": "e.csv", "final_demand": "d.csv",
    }))
    with pytest.raises(ValidationError, match="not found"):
        DatasetManifest.from_json(path)


# ---------------------------------------------------------------------------
# consumption summary
# ---------------------------------------------------------------------------


def test_consumption_single_renewable_entry():
    from enflow import MrioPeriod
    from enflow.dataio import CodeBook, MrioDataset

    period = MrioPeriod(
        2000,
        NetworkShape(1, 1),
        np.array([[0.0]]),
        np.array([1.0]),
        energy_array(1, hydro=7.0),
        np.zeros((1, 1)),
    )
    book = CodeBook(sectors=(("S", "Sector"),), countries=(("C", "Country"),))
    summary = consumption_summary(MrioDataset(periods=(period,), codebook=book).energy)
    assert summary[0, 0, 0] == 7.0  # class "all", year 0, the one country
    incidence = summary[1] / summary[0]  # renewable over "all"
    assert incidence[0, 0] == 1.0


def test_consumption_balanced_incidence():
    from enflow import MrioPeriod
    from enflow.dataio import CodeBook, MrioDataset

    period = MrioPeriod(
        2000,
        NetworkShape(1, 1),
        np.array([[0.0]]),
        np.array([1.0]),
        energy_array(1, hydro=2.0, coal=2.0),
        np.zeros((1, 1)),
    )
    book = CodeBook(sectors=(("S", "Sector"),), countries=(("C", "Country"),))
    summary = consumption_summary(MrioDataset(periods=(period,), codebook=book).energy)
    world = summary.sum(axis=2)
    incidence = world[1] / world[0]  # renewable over "all"
    assert incidence[0] == 0.5


def test_consumption_totals_match_brute_force():
    ds = generate_synthetic(small_spec(density=0.9))
    summary = consumption_summary(ds.energy)
    n, n_layers = ds.shape.n_nodes, ds.shape.n_layers
    by_entity = summary.reshape(len(SourceClass), len(ds.periods), n_layers, n)
    for t, period in enumerate(ds.periods):
        for c, cls in enumerate(SourceClass):
            raw = np.zeros(n * n_layers)
            for carrier, vec in energy_dict(period).items():
                if carrier in cls.carriers:
                    raw += vec
            country = [raw[a * n : (a + 1) * n].sum() for a in range(n_layers)]
            sector = [raw[np.arange(n_layers) * n + i].sum() for i in range(n)]
            assert np.allclose(by_entity[c, t].sum(axis=1), country, rtol=1e-12)
            assert np.allclose(by_entity[c, t].sum(axis=0), sector, rtol=1e-12)
            assert summary[c, t].sum() == pytest.approx(raw.sum(), rel=1e-12)


def test_consumption_mass_conservation():
    ds = generate_synthetic(small_spec(density=0.8, seed=11))
    summary = consumption_summary(ds.energy)
    by_entity = summary.reshape(*summary.shape[:2], ds.shape.n_layers, ds.shape.n_nodes)
    for c in range(len(SourceClass)):
        world = summary[c].sum(axis=1)
        country = by_entity[c].sum(axis=2).sum(axis=1)
        sector = by_entity[c].sum(axis=1).sum(axis=1)
        assert np.allclose(world, country, rtol=1e-12)
        assert np.allclose(world, sector, rtol=1e-12)


def test_class_sums_of_the_stack_match_each_period_bit_for_bit():
    for seed in range(6):
        ds = generate_synthetic(small_spec(seed=seed, shape=NetworkShape(3, 4, 3)))
        summary = consumption_summary(ds.energy)
        assert summary.shape == (3, 3, 12)
        for c, cls in enumerate(SourceClass):
            per_period = np.array([cls.total(p.energy_consumption) for p in ds.periods])
            # The carrier loop that the class-sum rule replaced.
            looped = np.zeros_like(per_period)
            for carrier, rows in zip(ENERGY_CARRIERS, ds.energy.transpose(1, 0, 2)):
                if carrier in cls.carriers:
                    looped += rows
            assert summary[c].tobytes() == per_period.tobytes() == looped.tobytes()


def test_load_energy_reads_what_load_dataset_reads(tmp_path):
    ds = generate_synthetic(small_spec(shape=NetworkShape(3, 2, 4), seed=2))
    manifest = DatasetManifest.from_json(save_dataset(ds, tmp_path))
    labels, codes, energy = load_energy(manifest)
    assert labels == ds.labels and codes == ds.codes
    assert energy.tobytes() == load_dataset(manifest).energy.tobytes() == ds.energy.tobytes()
    window = dataclasses.replace(manifest, years=(1991, 1992))
    labels, _, energy = load_energy(window)
    assert labels == (1991, 1992) and np.array_equal(energy, ds.energy[1:3])


def test_incidence_bounds_where_defined():
    for seed in range(10):
        ds = generate_synthetic(small_spec(seed=seed))
        summary = consumption_summary(ds.energy)
        by_entity = summary.reshape(*summary.shape[:2], ds.shape.n_layers, ds.shape.n_nodes)
        for totals in (by_entity.sum(axis=3), by_entity.sum(axis=2), summary.sum(axis=2)):
            # Renewable over "all", where "all" is positive.
            ratio = np.full_like(totals[0], np.nan)
            np.divide(totals[1], totals[0], out=ratio, where=totals[0] > 0)
            defined = np.isfinite(ratio)
            assert np.all(ratio[defined] >= 0.0)
            assert np.all(ratio[defined] <= 1.0)


# ---------------------------------------------------------------------------
# result export
# ---------------------------------------------------------------------------


def test_export_md_hits_sections(tmp_path):
    from enflow import md_hits_single_period, SupraAdjacency

    shape = NetworkShape(2, 2)
    w = SupraAdjacency.from_entries(shape, [(0, 3, 1.0), (3, 0, 2.0), (1, 2, 0.5)])
    scores = md_hits_single_period(w)
    book = bundled_codebook().truncated(2, 2)
    path = export_results(
        scores, tmp_path / "scores.csv", codes=book.entity_codes, period_labels=[1990]
    )
    lines = path.read_text().splitlines()
    components = {line.split(",")[0] for line in lines[1:]}
    assert components == {
        "node_hub", "node_authority", "layer_broadcast", "layer_receive", "time",
    }
    assert len(lines) == 1 + 2 + 2 + 2 + 2 + 1


def test_export_criticality_round_trip_full_precision(tmp_path):
    from enflow import FlowNetwork, arc_criticality

    net = FlowNetwork(4, [(0, 1, 1 / 3), (1, 2, 2 / 7), (2, 3, 0.9), (0, 3, 1e-7)])
    report = arc_criticality(net)
    path = export_results(report, tmp_path / "crit.csv", node_labels=["A", "B", "C", "D"])
    with path.open(newline="") as fh:
        back = list(csv.DictReader(fh))
    for column in ("removed_total", "index"):  # floats must match exactly
        assert [float(row[column]) for row in back] == report.rows[column].tolist()


def test_export_criticality_csv_columns(tmp_path):
    from enflow import FlowNetwork, arc_criticality

    net = FlowNetwork(2, [(0, 1, 3.0)])
    report = arc_criticality(net)
    path = export_results(report, tmp_path / "crit.csv", node_labels=["AAA", "BBB"])
    lines = path.read_text().splitlines()
    assert lines[0] == "tail_code,head_code,removed_total,index,rank"
    assert lines[1] == "AAA,BBB,0.0,1.0,1"
    # A node without a label is written as its number.
    path = export_results(report, tmp_path / "crit.csv", node_labels=["AAA"])
    assert path.read_text().splitlines()[1] == "AAA,1,0.0,1.0,1"


def test_export_rejects_unknown(tmp_path):
    with pytest.raises(ValidationError):
        export_results(object(), tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# network artifacts
# ---------------------------------------------------------------------------


def test_network_save_load_round_trip(tmp_path):
    ds = generate_synthetic(small_spec())
    net = build_temporal_network(ds.periods, SourceClass.ALL)
    save_network(net, ds.codes, SourceClass.ALL, tmp_path)
    back, codes = load_network(tmp_path, SourceClass.ALL)
    assert codes == ds.codes
    assert back.labels == net.labels
    for (_, a), (_, b) in zip(net.periods, back.periods):
        assert np.array_equal(a.matrix.toarray(), b.matrix.toarray())


def test_load_network_missing(tmp_path):
    with pytest.raises(ValidationError, match="missing meta"):
        load_network(tmp_path, SourceClass.ALL)
    ds = generate_synthetic(small_spec())
    net = build_temporal_network(ds.periods, SourceClass.ALL)
    save_network(net, ds.codes, SourceClass.ALL, tmp_path)
    with pytest.raises(ValidationError, match="renewable"):
        load_network(tmp_path, SourceClass.RENEWABLE)


def test_save_load_keeps_demand_arrays(tmp_path):
    ds = generate_synthetic(small_spec(shape=NetworkShape(4, 3, 3), density=0.4))
    loaded = load_dataset(DatasetManifest.from_json(save_dataset(ds, tmp_path)))
    for original, reread in zip(ds.periods, loaded.periods):
        y, z = original.final_demand, reread.final_demand
        assert y.shape == z.shape == (12, 3) and y.nnz > 0
        assert np.array_equal(y.indptr, z.indptr)
        assert np.array_equal(y.indices, z.indices)
        assert np.array_equal(y.data, z.data)


def test_synthetic_demand_falls_back_to_one_entry():
    period = generate_synthetic(small_spec(shape=NetworkShape(3, 4, 1), density=1e-9)).periods[0]
    ((key, value),) = demand_dict(period).items()
    assert key == (0, 0, 3) and 0.1 <= value < 2.0


def test_save_dataset_holds_one_period_at_a_time(tmp_path):
    def peak(periods: int) -> int:
        ds = generate_synthetic(small_spec(shape=NetworkShape(26, 12, periods), density=0.05))
        save_dataset(ds, tmp_path)  # the code-list text is made once per code universe
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, nine = peak(1), peak(9)
    assert nine < 1.5 * one, (one, nine)


def test_save_dataset_row_orders(tmp_path):
    # Code lists out of alphabetical order: energy rows follow the codes,
    # the other tables the supra indices (h = country * N + sector).
    codebook = CodeBook(sectors=(("S2", "two"), ("S1", "one")),
                        countries=(("C2", "two"), ("C1", "one")))
    use = np.zeros((4, 4))
    use[3, 0], use[0, 2] = 0.5, 0.25
    demand = np.zeros((4, 2))
    demand[0 * 2 + 1, 1], demand[1 * 2 + 0, 0], demand[0 * 2 + 0, 1] = 7.0, 8.0, 9.0
    period = MrioPeriod(2000, NetworkShape(2, 2), use, np.ones(4),
                        energy_array(4, hydro=[0.0, 5.0, 0.0, 0.0], coal=[1.0, 2.0, 3.0, 4.0]),
                        demand)
    save_dataset(MrioDataset(periods=(period,), codebook=codebook), tmp_path)

    def body(name):
        return (tmp_path / name).read_text().splitlines()[1:]

    assert body("transactions.csv") == ["2000,C2,S2,C1,S2,0.25", "2000,C1,S1,C2,S2,0.5"]
    assert body("outputs.csv") == ["2000,C2,S2,1.0", "2000,C2,S1,1.0", "2000,C1,S2,1.0",
                                   "2000,C1,S1,1.0"]
    assert body("energy.csv") == ["2000,C1,S1,coal,4.0", "2000,C1,S2,coal,3.0",
                                  "2000,C2,S1,coal,2.0", "2000,C2,S1,hydro,5.0",
                                  "2000,C2,S2,coal,1.0"]
    # (j, a, b) order: (0, 0, 1), (0, 1, 0), (1, 0, 1)
    assert body("final_demand.csv") == ["2000,C2,S2,C1,9.0", "2000,C1,S2,C2,8.0",
                                        "2000,C2,S1,C1,7.0"]
