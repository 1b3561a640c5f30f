/**
 * @file
 * Unit tests of the shared secure-path transport: the go-back-N
 * sender, the in-order receiver and the read deadline, driven
 * directly on an event queue with no platform around them.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "pcie/transport.hh"

using namespace ccai;
using namespace ccai::pcie;

namespace
{

constexpr std::uint16_t kChannel = 7;

/** A bare owner: event queue, trace track and counters. */
class GbnFixture : public ::testing::Test
{
  protected:
    GbnFixture() { retry.enabled = true; }

    Tick now() { return sys.now(); }
    std::uint64_t count(const char *name)
    {
        return stats.counterHandle(name).value();
    }

    sim::System sys;
    sim::SimObject owner{sys, "owner"};
    obs::MetricGroup stats{sys.metrics(), "owner"};
    RetryConfig retry;
};

class GbnSenderTest : public GbnFixture
{
  protected:
    GbnSender sender{owner, retry, kChannel, GbnSender::Counters(stats),
                     [this](const TlpPtr &tlp) {
                         resent.push_back(tlp->seqNo);
                         resentAt.push_back(now());
                     }};
    std::vector<std::uint64_t> resent;
    std::vector<Tick> resentAt;

    /** Stamp and window @p n writes (seq 1..n on a fresh sender). */
    void
    sendWrites(int n)
    {
        for (int i = 0; i < n; ++i) {
            Tlp tlp = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
            sender.stamp(tlp);
            sender.send(std::make_shared<Tlp>(std::move(tlp)));
        }
    }

    void ack(std::uint64_t seq) { sender.onAck({false, kChannel, seq}); }
    void nak(std::uint64_t seq) { sender.onAck({true, kChannel, seq}); }
};

} // namespace

TEST_F(GbnSenderTest, StampSetsSequenceAndArqFields)
{
    Tlp a = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
    Tlp b = a;
    sender.stamp(a);
    sender.stamp(b);
    EXPECT_EQ(a.seqNo, 1u);
    EXPECT_EQ(b.seqNo, 2u);
    EXPECT_TRUE(a.ackRequired);
    EXPECT_EQ(a.txChannel, kChannel);

    // Disabled: the sequence number still advances (the A3 MAC
    // covers it), but nothing is windowed or marked for acks.
    retry.enabled = false;
    Tlp c = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
    sender.stamp(c);
    sender.send(std::make_shared<Tlp>(c));
    EXPECT_EQ(c.seqNo, 3u);
    EXPECT_FALSE(c.ackRequired);
    EXPECT_EQ(sender.unacked(), 0u);
}

TEST_F(GbnSenderTest, CumulativeAckPopsWindowAndStaleAckIsNoop)
{
    sendWrites(3);
    EXPECT_EQ(sender.unacked(), 3u);
    ack(2);
    EXPECT_EQ(sender.unacked(), 1u);
    ack(1); // stale: already covered
    ack(2);
    EXPECT_EQ(sender.unacked(), 1u);
    ack(3);
    EXPECT_EQ(sender.unacked(), 0u);

    // The emptied window disarmed the ack timer: nothing fires.
    sys.eventq().run();
    EXPECT_TRUE(resent.empty());
    EXPECT_EQ(count("faults_recovered"), 0u);
}

TEST_F(GbnSenderTest, NakGoesBackFromSeqAndRepeatInsideGapIsSuppressed)
{
    sys.eventq().runUntil(1 * kTicksPerUs); // lastGoBack 0 = "never"
    sendWrites(4);
    nak(2);
    EXPECT_EQ(resent, (std::vector<std::uint64_t>{2, 3, 4}));
    EXPECT_EQ(count("transport_retransmits"), 3u);

    // Every packet behind one loss NAKs; inside retransmitGap those
    // collapse into the round already sent.
    nak(2);
    sys.eventq().runUntil(now() + retry.retransmitGap - 1);
    nak(3);
    EXPECT_EQ(resent.size(), 3u);

    sys.eventq().runUntil(now() + 1);
    nak(3);
    EXPECT_EQ(resent, (std::vector<std::uint64_t>{2, 3, 4, 3, 4}));
    EXPECT_EQ(count("transport_retransmits"), 5u);
}

TEST_F(GbnSenderTest, TimeoutBackoffFollowsTimeoutFor)
{
    retry.maxRetries = 3;
    sendWrites(1);
    sys.eventq().run();

    ASSERT_EQ(resentAt.size(), 3u);
    Tick expect = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        expect += retry.timeoutFor(retry.ackTimeout, attempt);
        EXPECT_EQ(resentAt[attempt], expect) << "attempt " << attempt;
    }
    EXPECT_EQ(count("transport_timeout_retransmits"), 3u);
    // The fourth expiry exhausts the budget.
    EXPECT_EQ(now(), expect + retry.timeoutFor(retry.ackTimeout, 3));
    EXPECT_EQ(count("faults_fatal"), 1u);
}

TEST_F(GbnSenderTest, ExhaustionAddsWindowToFatalAndClearsIt)
{
    retry.maxRetries = 0;
    sendWrites(3);
    sys.eventq().run();
    EXPECT_TRUE(resent.empty());
    EXPECT_EQ(count("faults_fatal"), 3u);
    EXPECT_EQ(sender.unacked(), 0u);

    // The channel keeps working after the window was abandoned.
    sendWrites(1);
    EXPECT_EQ(sender.unacked(), 1u);
    ack(4);
    EXPECT_EQ(sender.unacked(), 0u);
}

TEST_F(GbnSenderTest, AbandonedWindowMarksTheNextStampAsResync)
{
    auto stampOne = [this] {
        Tlp tlp = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
        sender.stamp(tlp);
        return tlp;
    };
    retry.maxRetries = 0;
    sendWrites(2);
    EXPECT_FALSE(stampOne().arqResync);
    sys.eventq().run(); // window abandoned

    // Only the first stamp after the abandonment is marked, and it is
    // covered by the MAC'd header.
    Tlp first = stampOne();
    EXPECT_TRUE(first.arqResync);
    Tlp unmarked = first;
    unmarked.arqResync = false;
    EXPECT_NE(first.serializeHeader(), unmarked.serializeHeader());
    EXPECT_FALSE(stampOne().arqResync);

    // A fresh session starts unmarked.
    sendWrites(1);
    sys.eventq().run();
    sender.restart();
    EXPECT_FALSE(stampOne().arqResync);
}

TEST_F(GbnSenderTest, DirtyWindowCreditsFaultsRecovered)
{
    sendWrites(2);
    ack(1); // clean ack: nothing was recovered
    EXPECT_EQ(count("faults_recovered"), 0u);

    sys.eventq().runUntil(retry.ackTimeout); // one timeout resend
    ASSERT_EQ(resent, (std::vector<std::uint64_t>{2}));
    sendWrites(1);
    ack(3);
    EXPECT_EQ(count("faults_recovered"), 2u);

    // The window drained, so the next ack is clean again.
    sendWrites(1);
    ack(4);
    EXPECT_EQ(count("faults_recovered"), 2u);
}

TEST_F(GbnSenderTest, ClearDropsWindowAndRestartResetsSequence)
{
    sendWrites(2);
    sender.clear();
    EXPECT_EQ(sender.unacked(), 0u);
    sys.eventq().run();
    EXPECT_TRUE(resent.empty());

    Tlp tlp = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
    sender.stamp(tlp);
    EXPECT_EQ(tlp.seqNo, 3u);
    sender.restart();
    sender.stamp(tlp);
    EXPECT_EQ(tlp.seqNo, 1u);
}

namespace
{

class GbnReceiverTest : public GbnFixture
{
  protected:
    GbnReceiver receiver{
        retry, GbnReceiver::Counters(stats),
        [this](const TransportAck &ack) { replies.push_back(ack); }};
    std::vector<TransportAck> replies;

    GbnReceiver::Verdict
    admit(std::uint64_t seq, const GbnReceiver::Accept &accept = nullptr)
    {
        Tlp tlp = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
        tlp.ackRequired = true;
        tlp.txChannel = kChannel;
        tlp.seqNo = seq;
        return receiver.admit(tlp, accept);
    }

    void
    expectReply(bool nak, std::uint64_t seq)
    {
        ASSERT_FALSE(replies.empty());
        EXPECT_EQ(replies.back().nak, nak);
        EXPECT_EQ(replies.back().channel, kChannel);
        EXPECT_EQ(replies.back().seq, seq);
    }
};

} // namespace

TEST_F(GbnReceiverTest, NextInOrderIsDeliveredAndAcked)
{
    EXPECT_EQ(admit(1), GbnReceiver::Verdict::Deliver);
    expectReply(false, 1);
    EXPECT_EQ(admit(2), GbnReceiver::Verdict::Deliver);
    expectReply(false, 2);
    EXPECT_EQ(count("transport_rx_accepted"), 2u);
    EXPECT_EQ(count("transport_acks_sent"), 2u);
}

TEST_F(GbnReceiverTest, DuplicateIsReAckedNotDelivered)
{
    admit(1);
    admit(2);
    EXPECT_EQ(admit(1), GbnReceiver::Verdict::Duplicate);
    expectReply(false, 2); // highest in-order, so the window advances
    EXPECT_EQ(count("transport_rx_duplicates"), 1u);
    EXPECT_EQ(count("transport_rx_accepted"), 2u);
}

TEST_F(GbnReceiverTest, GapIsNakedForFirstMissing)
{
    admit(1);
    EXPECT_EQ(admit(3), GbnReceiver::Verdict::Gap);
    expectReply(true, 2);
    EXPECT_EQ(count("transport_rx_ooo"), 1u);
    EXPECT_EQ(count("transport_naks_sent"), 1u);
    EXPECT_EQ(admit(2), GbnReceiver::Verdict::Deliver);
}

TEST_F(GbnReceiverTest, RejectingHookNaksWithoutAdvancing)
{
    admit(1);
    int asked = 0;
    auto refuse = [&] {
        ++asked;
        return false;
    };
    EXPECT_EQ(admit(2, refuse), GbnReceiver::Verdict::Rejected);
    expectReply(true, 2);
    EXPECT_EQ(asked, 1);
    EXPECT_EQ(count("transport_rx_accepted"), 1u);
    EXPECT_EQ(count("transport_naks_sent"), 1u);

    // Out-of-window packets never reach the hook.
    admit(1, refuse);
    admit(4, refuse);
    EXPECT_EQ(asked, 1);
    EXPECT_EQ(admit(2, [] { return true; }),
              GbnReceiver::Verdict::Deliver);
}

TEST_F(GbnReceiverTest, ResyncAboveBaseMovesItAfterTheHook)
{
    auto admitResync = [this](std::uint64_t seq,
                              const GbnReceiver::Accept &accept) {
        Tlp tlp = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
        tlp.ackRequired = true;
        tlp.txChannel = kChannel;
        tlp.seqNo = seq;
        tlp.arqResync = true;
        return receiver.admit(tlp, accept);
    };
    auto accept = [] { return true; };
    admit(1);
    admit(2);

    // At or below the base, a resync is a plain duplicate.
    EXPECT_EQ(admitResync(2, accept), GbnReceiver::Verdict::Duplicate);
    expectReply(false, 2);

    // Above it, the accept hook still decides; a refusal NAKs the
    // old next seq without moving the base.
    EXPECT_EQ(admitResync(6, [] { return false; }),
              GbnReceiver::Verdict::Rejected);
    expectReply(true, 3);

    // Accepted, it becomes the new base and the channel flows on.
    EXPECT_EQ(admitResync(6, accept), GbnReceiver::Verdict::Deliver);
    expectReply(false, 6);
    EXPECT_EQ(admit(7), GbnReceiver::Verdict::Deliver);
    EXPECT_EQ(admit(5), GbnReceiver::Verdict::Duplicate);
    EXPECT_EQ(count("transport_rx_ooo"), 0u);
    EXPECT_EQ(count("transport_rx_accepted"), 4u);
}

TEST_F(GbnReceiverTest, UnsequencedTrafficPassesWithoutReplies)
{
    Tlp plain = Tlp::makeMemWrite(Bdf(0, 1, 0), 0x1000, Bytes(8));
    EXPECT_EQ(receiver.admit(plain), GbnReceiver::Verdict::Deliver);
    retry.enabled = false;
    EXPECT_EQ(admit(5), GbnReceiver::Verdict::Deliver);
    EXPECT_TRUE(replies.empty());
}

TEST_F(GbnReceiverTest, ClearRestartsChannels)
{
    admit(1);
    admit(2);
    receiver.clear(kChannel);
    EXPECT_EQ(admit(1), GbnReceiver::Verdict::Deliver);
    receiver.clear();
    EXPECT_EQ(admit(1), GbnReceiver::Verdict::Deliver);
}

namespace
{

class ReadRetryTest : public GbnFixture
{
  protected:
    ReadRetryTest() { retry.maxReadRetries = 2; }

    /** A tracked read whose exhaustion callback destroys it, as the
     * root complex and the PCIe-SC do. */
    void
    track()
    {
        read.emplace(owner, retry,
                     ReadRetry::Counters{
                         stats.counterHandle("read_retries"),
                         stats.counterHandle("faults_fatal")},
                     [this](const TlpPtr &req) {
                         reissuedAt.push_back(now());
                         EXPECT_EQ(req.get(), request.get());
                     },
                     [this](TlpPtr req) {
                         exhausted = req;
                         read.reset();
                     });
        read->start(request);
    }

    TlpPtr request = std::make_shared<Tlp>(
        Tlp::makeMemRead(Bdf(0, 1, 0), 0x2000, 8, 5));
    std::optional<ReadRetry> read;
    std::vector<Tick> reissuedAt;
    TlpPtr exhausted;
};

} // namespace

TEST_F(ReadRetryTest, ReissuesOnDeadlineWithBackoff)
{
    track();
    sys.eventq().runUntil(retry.readTimeout);
    ASSERT_EQ(reissuedAt.size(), 1u);
    EXPECT_EQ(reissuedAt[0], retry.readTimeout);
    EXPECT_EQ(read->attempts(), 1);

    Tick second = retry.readTimeout +
                  retry.timeoutFor(retry.readTimeout, 1);
    sys.eventq().runUntil(second);
    ASSERT_EQ(reissuedAt.size(), 2u);
    EXPECT_EQ(reissuedAt[1], second);
    EXPECT_EQ(count("read_retries"), 2u);

    // The read completes: destroying the tracker disarms it.
    read.reset();
    sys.eventq().run();
    EXPECT_EQ(reissuedAt.size(), 2u);
    EXPECT_FALSE(exhausted);
}

TEST_F(ReadRetryTest, ExhaustionInvokesOwnerCallback)
{
    track();
    sys.eventq().run();
    EXPECT_EQ(reissuedAt.size(), 2u);
    EXPECT_EQ(exhausted, request);
    EXPECT_FALSE(read.has_value());
    EXPECT_EQ(count("faults_fatal"), 1u);
}

TEST_F(ReadRetryTest, ImmediateRetrySharesTheBudget)
{
    track();
    EXPECT_TRUE(read->retry());
    EXPECT_TRUE(read->retry());
    EXPECT_FALSE(read->retry());
    EXPECT_EQ(reissuedAt, (std::vector<Tick>{0, 0}));
    // The re-armed deadline finds the budget spent.
    sys.eventq().run();
    EXPECT_EQ(exhausted, request);
}
