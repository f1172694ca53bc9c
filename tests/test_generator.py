"""Synthetic workload generator: determinism, calibration properties."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.errors import ConfigError
from repro.geometry import DEFAULT_LAYOUT
from repro.trace.generator import (
    WORKLOADS,
    TraceSynthesizer,
    WorkloadProfile,
    generate_trace,
    generate_trace_buffer,
    get_profile,
    list_workloads,
)
from repro.trace.generator.patterns import (
    BLOCKS_PER_PAGE,
    DENSITY_CAP,
    assign_page_patterns,
    build_pattern_library,
    make_pattern,
)
from repro.trace.record import AccessType, DeviceID


class TestWorkloadRegistry:
    def test_all_ten_applications(self):
        assert list_workloads() == [
            "CFM", "HoK", "Id-V", "QSM", "TikT",
            "Fort", "HI3", "KO", "NBA2", "PM",
        ]
        assert set(WORKLOADS) == set(list_workloads())

    def test_table2_metadata(self):
        assert get_profile("CFM").paper_length_millions == pytest.approx(67.48)
        assert get_profile("HoK").name == "Honor of Kings"
        assert get_profile("TikT").description == "Short video sharing app"

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="CFM"):
            get_profile("WoW")

    def test_disjoint_address_spaces(self):
        ranges = []
        for abbr in list_workloads():
            profile = get_profile(abbr)
            ranges.append((profile.page_base, profile.page_base + profile.num_pages))
        ranges.sort()
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end <= start


class TestProfileValidation:
    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", snapshot_stability=1.5)

    def test_noise_plus_stream_bound(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", noise_fraction=0.6,
                            stream_fraction=0.5)

    def test_stride_bounds(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", pattern_strides=(0,))
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", pattern_strides=())


class TestPatterns:
    def test_density_cap(self):
        rng = random.Random(0)
        for _ in range(50):
            pattern = make_pattern(rng, mean_blocks=60.0)
            assert bin(pattern).count("1") <= DENSITY_CAP

    def test_pattern_nonempty(self):
        rng = random.Random(1)
        for _ in range(50):
            assert make_pattern(rng, mean_blocks=2.0) != 0

    def test_pattern_fits_page(self):
        rng = random.Random(2)
        for _ in range(50):
            assert make_pattern(rng, mean_blocks=30.0) < (1 << BLOCKS_PER_PAGE)

    def test_assignment_covers_all_pages(self):
        profile = get_profile("CFM")
        rng = random.Random(3)
        library = build_pattern_library(profile, rng)
        assert len(library) == profile.pattern_library_size
        assignments = assign_page_patterns(profile, library, rng)
        assert len(assignments) == profile.num_pages
        assert all(pattern in library for pattern in assignments[:200])

    def test_sub_run_sharing(self):
        # Contiguous sub-runs share one pattern choice.
        profile = dataclasses.replace(get_profile("CFM"), pattern_run_length=6)
        rng = random.Random(4)
        library = build_pattern_library(profile, rng)
        assignments = assign_page_patterns(profile, library, rng)
        run = profile.pattern_run_length
        cluster = profile.cluster_size
        # Check sub-runs inside the first few clusters.
        for cluster_start in range(0, 5 * cluster, cluster):
            for run_start in range(cluster_start, cluster_start + cluster - run, run):
                segment = assignments[run_start:run_start + run]
                assert len(set(segment)) == 1


class TestSynthesizer:
    def test_deterministic(self):
        profile = get_profile("CFM")
        first = generate_trace(profile, 2000, seed=5)
        second = generate_trace(profile, 2000, seed=5)
        assert first == second

    def test_seed_changes_trace(self):
        profile = get_profile("CFM")
        assert generate_trace(profile, 2000, seed=1) != generate_trace(profile, 2000, seed=2)

    def test_length(self):
        assert len(generate_trace(get_profile("HoK"), 1234, seed=0)) == 1234
        assert generate_trace(get_profile("HoK"), 0, seed=0) == []

    def test_negative_length_rejected(self):
        synthesizer = TraceSynthesizer(get_profile("HoK"), seed=0)
        with pytest.raises(ConfigError):
            list(synthesizer.records(-1))

    def test_arrival_times_monotonic(self):
        records = generate_trace(get_profile("QSM"), 3000, seed=9)
        times = [record.arrival_time for record in records]
        assert all(earlier < later for earlier, later in zip(times, times[1:]))

    def test_addresses_block_aligned_in_working_set(self):
        profile = get_profile("KO")
        records = generate_trace(profile, 3000, seed=2)
        low = profile.page_base
        high = profile.page_base + profile.num_pages
        for record in records:
            assert record.address % 64 == 0
            assert low <= DEFAULT_LAYOUT.page_number(record.address) < high

    def test_write_fraction_roughly_matches(self):
        profile = get_profile("CFM")
        records = generate_trace(profile, 20_000, seed=3)
        writes = sum(1 for record in records if record.is_write)
        assert writes / len(records) == pytest.approx(profile.write_fraction, abs=0.05)

    def test_channel_balance(self):
        records = generate_trace(get_profile("CFM"), 20_000, seed=4)
        counts = [0] * 4
        for record in records:
            counts[DEFAULT_LAYOUT.channel(record.address)] += 1
        for count in counts:
            assert count > len(records) * 0.15

    def test_page_pattern_lookup_wraps(self):
        synthesizer = TraceSynthesizer(get_profile("CFM"), seed=0)
        profile = get_profile("CFM")
        assert synthesizer.page_pattern(0) == synthesizer.page_pattern(profile.num_pages)

    def test_order_entropy_zero_is_sorted(self):
        profile = dataclasses.replace(
            get_profile("CFM"), episode_order_entropy=0.0,
            episode_concurrency=1, noise_fraction=0.0, stream_fraction=0.0,
            intra_episode_reuse=0.0,
        )
        records = generate_trace(profile, 500, seed=6)
        # With a single episode at a time and zero entropy, block offsets
        # within one page visit are non-decreasing; a drop only happens
        # when the page is immediately revisited (a new episode starts).
        last_page, last_block = None, -1
        transitions = violations = 0
        for record in records:
            page = DEFAULT_LAYOUT.page_number(record.address)
            block = DEFAULT_LAYOUT.block_in_page(record.address)
            if page == last_page:
                transitions += 1
                if block < last_block:
                    violations += 1
            last_page, last_block = page, block
        assert transitions > 50
        assert violations / transitions < 0.1

    def test_layout_mismatch_rejected(self):
        from repro.geometry import AddressLayout

        small_pages = AddressLayout(page_size=2048)
        with pytest.raises(ConfigError):
            TraceSynthesizer(get_profile("CFM"), layout=small_pages)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @hsettings(max_examples=10, deadline=None)
    def test_any_seed_generates_valid_records(self, seed):
        records = generate_trace(get_profile("PM"), 300, seed=seed)
        assert len(records) == 300
        for record in records:
            assert record.address >= 0
            assert record.arrival_time >= 0


class TestPhases:
    def test_no_phases_by_default(self):
        synthesizer = TraceSynthesizer(get_profile("CFM"), seed=1)
        list(synthesizer.records(2000))
        assert synthesizer.phase_switches == 0

    def test_switch_count(self):
        profile = dataclasses.replace(get_profile("CFM"), phase_length=500)
        synthesizer = TraceSynthesizer(profile, seed=1)
        list(synthesizer.records(2600))
        assert synthesizer.phase_switches == 5

    def test_zero_drift_keeps_patterns(self):
        profile = dataclasses.replace(get_profile("CFM"), phase_length=500,
                                      phase_drift=0.0)
        synthesizer = TraceSynthesizer(profile, seed=1)
        before = [synthesizer.page_pattern(page) for page in range(100)]
        list(synthesizer.records(3000))
        after = [synthesizer.page_pattern(page) for page in range(100)]
        assert before == after

    def test_full_drift_changes_patterns(self):
        profile = dataclasses.replace(get_profile("CFM"), phase_length=500,
                                      phase_drift=1.0)
        synthesizer = TraceSynthesizer(profile, seed=1)
        before = [synthesizer.page_pattern(page) for page in range(400)]
        list(synthesizer.records(1000))
        after = [synthesizer.page_pattern(page) for page in range(400)]
        assert before != after

    def test_drift_preserves_sub_run_sharing(self):
        profile = dataclasses.replace(get_profile("CFM"), phase_length=500,
                                      phase_drift=1.0, pattern_run_length=6)
        synthesizer = TraceSynthesizer(profile, seed=1)
        list(synthesizer.records(1000))
        run = profile.pattern_run_length
        for run_start in range(0, 5 * run, run):
            patterns = {synthesizer.page_pattern(page)
                        for page in range(run_start, run_start + run)}
            assert len(patterns) == 1

    def test_drift_probability_validated(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", phase_drift=1.5)
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", abbr="x", phase_length=-1)


# ----------------------------------------------------------------------
# Pinned traces
# ----------------------------------------------------------------------
# The generator is the input to every golden number: the committed
# golden trace, EXPERIMENTS.md and every benchmark regenerate their
# traces from (profile, seed, length).  These digests pin the four
# columns of ``generate_trace_buffer`` so that a change to the emission
# loop that moves a single RNG draw fails here, by name, before it moves
# a figure.  Regenerate them only for an intended change to the trace
# model, and commit them with it.

def _trace_digest(buffer) -> str:
    digest = hashlib.sha256()
    for column in (buffer.addresses, buffer.access_types, buffer.devices,
                   buffer.arrival_times):
        digest.update(column.astype(column.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


#: Off-registry profiles for branches no registered app reaches.
_VARIANTS = {
    "phase-drift": dict(base="CFM", phase_length=1_500, phase_drift=0.3),
    "entropy-0": dict(base="HoK", episode_order_entropy=0.0),
    "entropy-1": dict(base="HoK", episode_order_entropy=1.0),
    "stream-heavy": dict(base="TikT", stream_fraction=0.6, noise_fraction=0.1,
                         stream_length_mean=3),
    "one-episode": dict(base="KO", episode_concurrency=1,
                        intra_episode_reuse=0.5, revisit_history=16,
                        device_weights={DeviceID.CPU: 1.0, DeviceID.NPU: 0.0,
                                        DeviceID.DSP: 2.5}),
}


def _variant_profile(name: str) -> WorkloadProfile:
    fields = dict(_VARIANTS[name])
    return dataclasses.replace(get_profile(fields.pop("base")), **fields)


PINNED_DIGESTS = {
    ("CFM", 1, 2_000):
        "fd56a9bf7688114333b35f01b37b6dc9ffa14e254688fa00f1eee3f79633b980",
    ("CFM", 1, 20_000):
        "e62a0319a9ebe504205b1ed57de8fd8a508e3072b775a93d4ce8287b67ab825f",
    ("CFM", 1009, 2_000):
        "1dd41d33d5f94b4015257b40d8acdaf5fa12016c1b736d4f523e6251286089a0",
    ("CFM", 1009, 20_000):
        "2641c5eff8b248b32995901b0144595495cb6c4d009314838cffab614dd20744",
    ("HoK", 1, 2_000):
        "850d152760fe2b279477caed49af8e87bcc7897b4f8280f9cd7282650d3b6a1a",
    ("HoK", 1, 20_000):
        "23dde8a53201051558bdc2b66b3307edc218d09af903fe129de78e0463b0e054",
    ("HoK", 1009, 2_000):
        "ce0f72082ff4c6c41d12342fe031d1872f56932706be8471292d8db029958e2e",
    ("HoK", 1009, 20_000):
        "3be58f6c7a5702528a529ddb77e89f17f4fcb7033a7c6ff06e3e74f4d0bf7f05",
    ("Id-V", 1, 2_000):
        "9cfd1ee55644fa43e5574d7f9aec5d4e0c05bbd5e944032f498462f572f183b1",
    ("Id-V", 1, 20_000):
        "b9d30dd82a4ab84309f49ead334a46fb7d84e5c3ee8b719a3481b5e7d9ffaee4",
    ("Id-V", 1009, 2_000):
        "c887d083890322dfa90b80281b4f32f59c5621c8a324b98105a520687e8fe05c",
    ("Id-V", 1009, 20_000):
        "c55cc28c976fca7ac2280fbd547dc9fa27bad5aa9596c380167a8590c7bb50f0",
    ("QSM", 1, 2_000):
        "55e91b9050e74adafcfecec6285a1158c649ea3296b2d7a4003b0cd451a2a27d",
    ("QSM", 1, 20_000):
        "e5b145a6714541e013969f0828fac8edd7038b96caa5da676b7909cae6bce129",
    ("QSM", 1009, 2_000):
        "87e340762159feb26087178ad4a3e240f66fe2baa86cd0bbe6f575f4afe767d8",
    ("QSM", 1009, 20_000):
        "cf003aa66b534cfe40f49c3842ac57a440ec052cf04ba5f7c66e6cad448953ba",
    ("TikT", 1, 2_000):
        "a0046f11b6211650414074194a8a6edda470deb6e069d0d14aea7422afa645c9",
    ("TikT", 1, 20_000):
        "a5305522c898c9731a9c24ca7a274804dfc5e93ed7b2450ea1321f44554a7245",
    ("TikT", 1009, 2_000):
        "a54352253ac9f6e8c1380fa78368a9fbe7f870f189e24624ff04ed75b4606575",
    ("TikT", 1009, 20_000):
        "fc7b566a8e28e4682ade10c58da51780774d9e47421de3dab4302181ade53926",
    ("Fort", 1, 2_000):
        "24b6f09cea79ec0d4109ed7446ab23a9cd55a4304a33e214e250af4a4fc56c43",
    ("Fort", 1, 20_000):
        "6a15c9116111bb550a8c563686ea45ffd1787fa55bf745df33a3b7e872860abc",
    ("Fort", 1009, 2_000):
        "b075d20d67da5617f5140570722c9c450076293781f42cc86ae0b98de82858a9",
    ("Fort", 1009, 20_000):
        "db44fb8a09f65c51062f2c0cf8e27d1b8ea1046f0a85f68e0fc8b151e4b0c65e",
    ("HI3", 1, 2_000):
        "8dcf4aa517865ec528fb6ed86c4e25b2063564e52150b085eb8e3f3a9c4129df",
    ("HI3", 1, 20_000):
        "7a816ca62beb3d9a2804c5e0ea219778385897ea38e83e91ac49f4a86f185ba1",
    ("HI3", 1009, 2_000):
        "0712703becd901b240a6c1d19e72b0ef3634370d0eb40b12c77d7149e6f86ed1",
    ("HI3", 1009, 20_000):
        "9ec29cab674398482ea3dd7f80e04e326db40c267b13f92c93847fe286b6bc17",
    ("KO", 1, 2_000):
        "82b6e23cad1ef6c0f019b1f38ca474add8b91a4a9410a269e976e5153622e7fc",
    ("KO", 1, 20_000):
        "6b3e0b817c0aaa3691bd4c87376285bc7f51d7af46d4dcb7e6038e06d28b90e9",
    ("KO", 1009, 2_000):
        "a643c5b53ba25a9304e2806bee77878989ea10527426ee83d8262fb1d38a6809",
    ("KO", 1009, 20_000):
        "0aecf6bea1cd7658ed2d5c31ea1dc6008c2f90b3d2801d8408b1cd16ca89cdba",
    ("NBA2", 1, 2_000):
        "1855158255731a857a3364dd892b6c924b2a071c5b50b53aff354a80b713a3df",
    ("NBA2", 1, 20_000):
        "590cb6530a37ef83224b1fd62b73b8ce85436f461167fc59385c0f7ae66b9146",
    ("NBA2", 1009, 2_000):
        "fba58a0272995bb1ed96fc7d6adfe1fd739ec4e6119ba0d4f04d14804acd2bf3",
    ("NBA2", 1009, 20_000):
        "dad8fb1149f6b0b25b85bf83ce2c94702312d12eca86a91dc451683d02d8b75d",
    ("PM", 1, 2_000):
        "e60ea7fce29c7444322f9a5697ffb1fe530e3f8ca3e906f32cf7549365857568",
    ("PM", 1, 20_000):
        "2aa4036c8f7d7aead716fd853c031b281276b340fafa75135ca30fe19395a1d1",
    ("PM", 1009, 2_000):
        "4b70946e1bc8bb78ce98c06b4ace925d2f5e207ecf9e03de1cbed2832b23f6da",
    ("PM", 1009, 20_000):
        "be4023ce7628903d011e13e6c925e029b43a51c00126fed3d7b917a0d7b305f7",
}

VARIANT_DIGESTS = {
    "phase-drift":
        "c57a836de567aaa1ad3a31dffe5cd8797c1800824d760a65aae315eb42e979b3",
    "entropy-0":
        "c0e6c88cd5193181a6617b3dac30cdfc80780f6ce998e7ef0af8bc2539188235",
    "entropy-1":
        "cee07a6fdf7175837e192e8882536901ec5f6b90ac93ead621107825fbb62e98",
    "stream-heavy":
        "30538387c5ab46ba731a954f02bc763f1690bc7d94124f35d16b2cbdcbe00977",
    "one-episode":
        "584e377451bf6308dde79bc6074f13055e195d8398e20fc6e7479f2c458b4ad3",
}


class TestPinnedTraces:
    @pytest.mark.parametrize("app,seed,length", sorted(PINNED_DIGESTS))
    def test_registered_app(self, app, seed, length):
        buffer = generate_trace_buffer(get_profile(app), length, seed=seed)
        assert _trace_digest(buffer) == PINNED_DIGESTS[app, seed, length]

    def test_every_app_is_pinned(self):
        assert {key[0] for key in PINNED_DIGESTS} == set(list_workloads())

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_off_registry_profile(self, variant):
        buffer = generate_trace_buffer(_variant_profile(variant), 20_000, seed=1)
        assert _trace_digest(buffer) == VARIANT_DIGESTS[variant]

    @pytest.mark.parametrize("profile", [get_profile("CFM"),
                                         _variant_profile("phase-drift")],
                             ids=["CFM", "phase-drift"])
    def test_split_columns_continue_the_trace(self, profile):
        whole = TraceSynthesizer(profile, seed=7).columns(12_000)
        synthesizer = TraceSynthesizer(profile, seed=7)
        first = synthesizer.columns(4_500)
        second = synthesizer.columns(7_500)
        assert [a + b for a, b in zip(first, second)] == list(whole)

    @pytest.mark.parametrize("app", ["CFM", "Fort"])
    def test_records_match_columns(self, app):
        profile = get_profile(app)
        columns = TraceSynthesizer(profile, seed=3).columns(5_000)
        records = list(TraceSynthesizer(profile, seed=3).records(5_000))
        assert [record.address for record in records] == columns[0]
        assert [record.access_type for record in records] == columns[1]
        assert [record.device for record in records] == columns[2]
        assert [record.arrival_time for record in records] == columns[3]
        assert all(type(record.access_type) is AccessType
                   and type(record.device) is DeviceID for record in records)


class TestColumnEdges:
    def test_negative_length_rejected(self):
        synthesizer = TraceSynthesizer(get_profile("HoK"), seed=0)
        with pytest.raises(ConfigError):
            synthesizer.columns(-1)

    def test_zero_length_is_four_empty_lists(self):
        synthesizer = TraceSynthesizer(get_profile("HoK"), seed=0)
        assert synthesizer.columns(0) == ([], [], [], [])
