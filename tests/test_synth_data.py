"""Tests for the interaction-stream generators (repro.synth_data)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


STREAMS = [
    lambda n, s: sd.lbsn_stream(n_steps=n, seed=s),
    lambda n, s: sd.retweet_stream(n_steps=n, seed=s),
    lambda n, s: sd.qa_stream(n_steps=n, seed=s),
]


class TestInteractionStreams:
    @pytest.mark.parametrize("gen", STREAMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_schema_and_time(self, gen, seed):
        pdf = gen(300, seed)
        assert list(pdf.columns) == ["u", "v", "t"]
        assert (pdf["t"].to_numpy() == np.arange(1, 301)).all()
        assert pdf[["u", "v", "t"]].dtypes.astype(str).tolist() == ["int64"] * 3

    @pytest.mark.parametrize("gen", STREAMS)
    def test_no_self_interactions(self, gen):
        pdf = gen(500, 3)
        assert (pdf["u"] != pdf["v"]).all()

    @pytest.mark.parametrize("gen", STREAMS)
    def test_deterministic_in_seed(self, gen):
        pd.testing.assert_frame_equal(gen(200, 5), gen(200, 5))

    @pytest.mark.parametrize("gen", STREAMS)
    def test_seeds_differ(self, gen):
        assert not gen(200, 1).equals(gen(200, 2))

    def test_lbsn_bipartite(self):
        pdf = sd.lbsn_stream(n_steps=400, n_places=50, n_users=100, seed=0)
        assert pdf["u"].max() < 50  # sources are places
        assert pdf["v"].min() >= 50  # targets are users

    def test_lbsn_popularity_skew(self):
        pdf = sd.lbsn_stream(n_steps=3000, n_places=100, n_users=200, alpha=1.2, seed=0)
        counts = pdf["u"].value_counts()
        assert counts.iloc[0] > 5 * counts.median()

    def test_retweet_has_repeat_interactions(self):
        pdf = sd.retweet_stream(n_steps=2000, n_users=100, seed=0)
        assert pdf.duplicated(["u", "v"]).any()  # multi-edges exist

    def test_retweet_chains_create_two_hop_paths(self):
        """chain_prob makes some influencees later influence others."""
        pdf = sd.retweet_stream(n_steps=2000, n_users=300, chain_prob=0.4, seed=0)
        sources, targets = set(pdf["u"]), set(pdf["v"])
        assert len(sources & targets) > 10

    def test_qa_flatter_than_retweet(self):
        qa = sd.qa_stream(n_steps=3000, n_users=500, seed=0)
        rt = sd.retweet_stream(n_steps=3000, n_users=500, seed=0)
        top_share = lambda p: p["u"].value_counts().iloc[0] / len(p)
        assert top_share(qa) < top_share(rt)

    def test_interactions_df_adds_timestamp(self, spark):
        pdf = sd.qa_stream(n_steps=50, seed=0)
        sdf = sd.interactions_df(spark, pdf)
        assert "ts" in sdf.columns
        got = sdf.orderBy("t").toPandas()
        # monotone event time, 1s per step
        deltas = got["ts"].diff().dropna().dt.total_seconds()
        assert (deltas == 1.0).all()
