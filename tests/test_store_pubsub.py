"""Unit tests for the pub/sub fan-out."""

from __future__ import annotations

from repro.store import PubSub


class TestExactTopics:
    def test_publish_to_subscriber(self):
        ps = PubSub()
        seen = []
        ps.subscribe("task.1", lambda t, m: seen.append((t, m)))
        assert ps.publish("task.1", "done") == 1
        assert seen == [("task.1", "done")]

    def test_no_cross_topic_delivery(self):
        ps = PubSub()
        seen = []
        ps.subscribe("task.1", lambda t, m: seen.append(m))
        ps.publish("task.2", "x")
        assert seen == []

    def test_multiple_subscribers(self):
        ps = PubSub()
        seen = []
        ps.subscribe("t", lambda _t, m: seen.append("a"))
        ps.subscribe("t", lambda _t, m: seen.append("b"))
        assert ps.publish("t", None) == 2
        assert sorted(seen) == ["a", "b"]

    def test_publish_without_subscribers(self):
        assert PubSub().publish("nobody", 1) == 0


class TestTopicsAreExact:
    """There is one monitoring topic, so a topic is matched whole."""

    def test_a_shared_prefix_is_not_a_match(self):
        ps = PubSub()
        seen = []
        ps.subscribe("endpoint.", lambda t, m: seen.append(t))
        assert ps.publish("endpoint.abc.queued", 1) == 0
        assert ps.publish("endpoint.", 1) == 1
        assert seen == ["endpoint."]

    def test_empty_topic_matches_only_itself(self):
        ps = PubSub()
        seen = []
        ps.subscribe("", lambda t, m: seen.append(t))
        ps.publish("anything", 1)
        assert seen == []
        ps.publish("", 1)
        assert seen == [""]

    def test_subscriber_count_is_per_topic(self):
        ps = PubSub()
        ps.subscribe("a.b", lambda t, m: None)
        ps.subscribe("a.", lambda t, m: None)
        assert ps.subscriber_count("a.b") == 1
        assert ps.subscriber_count("a.") == 1
        assert ps.subscriber_count("a") == 0


class TestUnsubscribeAndErrors:
    def test_unsubscribe(self):
        ps = PubSub()
        seen = []
        token = ps.subscribe("t", lambda _t, m: seen.append(m))
        assert ps.unsubscribe(token)
        ps.publish("t", 1)
        assert seen == []

    def test_unsubscribe_unknown_token(self):
        assert not PubSub().unsubscribe(12345)

    def test_unsubscribe_leaves_the_topics_other_subscriber(self):
        ps = PubSub()
        seen = []
        token = ps.subscribe("x.y", lambda t, m: seen.append("gone"))
        ps.subscribe("x.y", lambda t, m: seen.append("kept"))
        assert ps.unsubscribe(token)
        assert not ps.unsubscribe(token)  # idempotent
        assert ps.subscriber_count("x.y") == 1
        assert ps.publish("x.y", 1) == 1
        assert seen == ["kept"]

    def test_bad_subscriber_is_isolated(self):
        ps = PubSub()
        seen = []

        def bad(_t, _m):
            raise RuntimeError("monitor crashed")

        ps.subscribe("t", bad)
        ps.subscribe("t", lambda _t, m: seen.append(m))
        delivered = ps.publish("t", "msg")
        assert delivered == 1          # good subscriber still served
        assert seen == ["msg"]
        assert len(ps.delivery_errors) == 1
