// Wire protocol tests: framing, serialization primitives, status
// mapping, and the server-facing corruption matrix — truncated frames,
// oversized lengths, CRC mismatches, unknown opcodes, and cross-version
// handshakes must each produce a clean error, never a crash.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "common/crc32.h"
#include "core/database.h"
#include "net/client.h"
#include "net/net_util.h"
#include "net/server.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::net {
namespace {

using storage::DataType;
using storage::RowLocation;
using storage::Value;

// --- Pure wire-format tests -----------------------------------------------

TEST(WireFormatTest, RoundtripPrimitives) {
  std::vector<uint8_t> buf;
  WireWriter writer(&buf);
  writer.U8(7);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.F64(3.25);
  writer.Str("hello");
  writer.Value(Value(int64_t{-42}));
  writer.Value(Value(2.5));
  writer.Value(Value(std::string("world")));
  writer.Row({Value(int64_t{1}), Value(std::string("x"))});
  writer.Loc(RowLocation{false, 17});

  WireReader reader(buf.data(), buf.size());
  EXPECT_EQ(reader.U8(), 7);
  EXPECT_EQ(reader.U16(), 0xBEEF);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.F64(), 3.25);
  EXPECT_EQ(reader.Str(), "hello");
  EXPECT_EQ(std::get<int64_t>(reader.Value()), -42);
  EXPECT_EQ(std::get<double>(reader.Value()), 2.5);
  EXPECT_EQ(std::get<std::string>(reader.Value()), "world");
  const auto row = reader.Row();
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(row[0]), 1);
  const RowLocation loc = reader.Loc();
  EXPECT_FALSE(loc.in_main);
  EXPECT_EQ(loc.row, 17u);
  EXPECT_TRUE(reader.Exhausted());
}

TEST(WireFormatTest, ReaderLatchesOnOverrun) {
  std::vector<uint8_t> buf;
  WireWriter writer(&buf);
  writer.U32(5);
  WireReader reader(buf.data(), buf.size());
  (void)reader.U32();
  (void)reader.U64();  // overruns
  EXPECT_FALSE(reader.ok());
  // Latched: every further read stays zero and keeps the error.
  EXPECT_EQ(reader.U8(), 0);
  EXPECT_EQ(reader.Str(), "");
  EXPECT_FALSE(reader.ok());
}

TEST(WireFormatTest, ReaderSurvivesTruncationFuzz) {
  // Build full valid payloads, then decode every prefix of each from an
  // exactly-sized copy: no prefix may crash or read past its buffer, the
  // full payload must decode, and a strict prefix of a payload whose
  // every field is required must fail. (A hello's window field is
  // optional, so its prefixes may parse as a shorter hello.)
  struct Input {
    std::string name;
    std::vector<uint8_t> bytes;
    std::function<bool(const uint8_t*, size_t)> decode;
    bool every_field_required;
  };
  std::vector<Input> inputs;
  {
    std::vector<uint8_t> buf;
    WireWriter writer(&buf);
    writer.U8(static_cast<uint8_t>(Opcode::kInsert));
    writer.U64(12);
    writer.Str("orders");
    writer.Row({Value(int64_t{5}), Value(1.5), Value(std::string("abc"))});
    inputs.push_back({"insert request", buf,
                      [](const uint8_t* data, size_t len) {
                        WireReader reader(data, len);
                        (void)reader.U8();
                        (void)reader.U64();
                        (void)reader.Str();
                        const auto row = reader.Row();
                        return reader.ok() && row.size() == 3;
                      },
                      true});
  }
  const auto parse_hello = [](const uint8_t* data, size_t len) {
    WireReader reader(data, len);
    (void)reader.U8();  // opcode
    return ParseHello(reader).ok();
  };
  inputs.push_back({"v1 hello", EncodeHello({1, 1, 0}), parse_hello, false});
  inputs.push_back({"v2 hello", EncodeHello({1, 2, 16}), parse_hello, false});
  const auto parse_reply = [](const uint8_t* data, size_t len) {
    return ParseHelloReply(data, len).ok();
  };
  inputs.push_back(
      {"v1 reply", EncodeHelloReply({1, 2, 77, 0}), parse_reply, true});
  inputs.push_back(
      {"v2 reply", EncodeHelloReply({2, 2, 77, 16}), parse_reply, true});
  for (uint8_t kind = DmlOp::kInsert; kind <= DmlOp::kDelete; ++kind) {
    std::vector<uint8_t> buf;
    WireWriter writer(&buf);
    writer.U8(kind);
    writer.DmlBody(kind, "orders", RowLocation{true, 9},
                   {Value(int64_t{5}), Value(std::string("abc"))});
    inputs.push_back({"batch op kind " + std::to_string(kind), buf,
                      [](const uint8_t* data, size_t len) {
                        WireReader reader(data, len);
                        (void)reader.BatchOp();
                        return reader.Exhausted();
                      },
                      true});
  }
  for (const Input& input : inputs) {
    for (size_t len = 0; len <= input.bytes.size(); ++len) {
      const std::vector<uint8_t> prefix(input.bytes.begin(),
                                        input.bytes.begin() + len);
      const bool ok = input.decode(prefix.data(), prefix.size());
      if (len == input.bytes.size()) {
        EXPECT_TRUE(ok) << input.name;
      } else if (input.every_field_required) {
        EXPECT_FALSE(ok) << input.name << " decoded from " << len
                         << " bytes";
      }
    }
  }
}

TEST(WireFormatTest, CodecWritesTheHandWrittenBytes) {
  // The codec must not move a byte: each encoding equals what the
  // endpoints wrote by hand with WireWriter before it existed, and the
  // readers decode those hand-written bytes back.
  std::vector<uint8_t> v1_hello;
  WireWriter v1_hello_writer(&v1_hello);
  v1_hello_writer.U8(static_cast<uint8_t>(Opcode::kHello));
  v1_hello_writer.U32(kHelloMagic);
  v1_hello_writer.U16(1);
  v1_hello_writer.U16(1);
  EXPECT_EQ(EncodeHello({1, 1, 8}), v1_hello);  // no window field on v1

  std::vector<uint8_t> v2_hello;
  WireWriter v2_hello_writer(&v2_hello);
  v2_hello_writer.U8(static_cast<uint8_t>(Opcode::kHello));
  v2_hello_writer.U32(kHelloMagic);
  v2_hello_writer.U16(1);
  v2_hello_writer.U16(2);
  v2_hello_writer.U32(8);
  EXPECT_EQ(EncodeHello({1, 2, 8}), v2_hello);
  WireReader hello_reader(v2_hello.data() + 1, v2_hello.size() - 1);
  auto hello = ParseHello(hello_reader);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->min_version, 1);
  EXPECT_EQ(hello->max_version, 2);
  EXPECT_EQ(hello->window, 8u);

  std::vector<uint8_t> v1_reply;
  WireWriter v1_reply_writer(&v1_reply);
  v1_reply_writer.U8(static_cast<uint8_t>(Opcode::kHello));
  v1_reply_writer.U8(static_cast<uint8_t>(WireCode::kOk));
  v1_reply_writer.U16(1);
  v1_reply_writer.U8(2);
  v1_reply_writer.U64(77);
  EXPECT_EQ(EncodeHelloReply({1, 2, 77, 0}), v1_reply);

  std::vector<uint8_t> v2_reply;
  WireWriter v2_reply_writer(&v2_reply);
  v2_reply_writer.U8(static_cast<uint8_t>(Opcode::kHello));
  v2_reply_writer.U8(static_cast<uint8_t>(WireCode::kOk));
  v2_reply_writer.U16(2);
  v2_reply_writer.U8(2);
  v2_reply_writer.U64(77);
  v2_reply_writer.U32(32);
  EXPECT_EQ(EncodeHelloReply({2, 2, 77, 32}), v2_reply);
  auto reply = ParseHelloReply(v2_reply.data(), v2_reply.size());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->version, 2);
  EXPECT_EQ(reply->mode, 2);
  EXPECT_EQ(reply->session_id, 77u);
  EXPECT_EQ(reply->window, 32u);
  // One rule for every client: a v2 reply granting no window is refused.
  const std::vector<uint8_t> no_window = EncodeHelloReply({2, 2, 77, 0});
  EXPECT_FALSE(ParseHelloReply(no_window.data(), no_window.size()).ok());

  const std::string table = "orders";
  const RowLocation loc{true, 9};
  const std::vector<Value> row = {Value(int64_t{5}),
                                  Value(std::string("abc"))};
  const Opcode single_ops[] = {Opcode::kInsert, Opcode::kUpdate,
                               Opcode::kDelete};
  for (uint8_t kind = DmlOp::kInsert; kind <= DmlOp::kDelete; ++kind) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    // Single-op request: [opcode][u64 tid][str table], then [loc] for
    // update/delete, then [row] for insert/update.
    std::vector<uint8_t> single;
    WireWriter single_writer(&single);
    single_writer.U8(static_cast<uint8_t>(single_ops[kind - 1]));
    single_writer.U64(4);
    single_writer.Str(table);
    if (kind != 1) single_writer.Loc(loc);
    if (kind != 3) single_writer.Row(row);
    std::vector<uint8_t> single_codec;
    WireWriter single_codec_writer(&single_codec);
    single_codec_writer.U8(static_cast<uint8_t>(DmlOpcode(kind)));
    single_codec_writer.U64(4);
    single_codec_writer.DmlBody(kind, table, loc, row);
    EXPECT_EQ(single_codec, single);

    // kDmlBatch op: [u8 kind] + the same body.
    std::vector<uint8_t> batch;
    WireWriter batch_writer(&batch);
    batch_writer.U8(kind);
    batch_writer.Str(table);
    if (kind != 1) batch_writer.Loc(loc);
    if (kind != 3) batch_writer.Row(row);
    DmlOp op;
    op.kind = kind;
    op.table = table;
    op.loc = loc;
    op.row = row;
    std::vector<uint8_t> batch_codec;
    WireWriter batch_codec_writer(&batch_codec);
    batch_codec_writer.U8(op.kind);
    batch_codec_writer.DmlBody(op);
    EXPECT_EQ(batch_codec, batch);

    WireReader batch_reader(batch.data(), batch.size());
    const DmlOp decoded = batch_reader.BatchOp();
    EXPECT_TRUE(batch_reader.Exhausted());
    EXPECT_EQ(decoded.kind, kind);
    EXPECT_EQ(decoded.table, table);
    EXPECT_EQ(decoded.loc.row, kind == 1 ? 0u : loc.row);
    EXPECT_EQ(decoded.row.size(), kind == 3 ? 0u : row.size());
  }
}

TEST(WireFormatTest, DmlFramesWriteThePinnedBytes) {
  // The bytes deployed peers exchange for these requests; each value is
  // [u8 tag: 1 int64, 2 double, 3 string] then 8 bytes or [u32 length]
  // [bytes]. A change to the shared value encoding fails here.
  const std::vector<Value> row = {Value(int64_t{-5}), Value(0.5),
                                  Value(std::string("ab"))};
  const std::vector<uint8_t> v1_insert = {
      0x29, 0x00, 0x00, 0x00, 0xFB, 0x8D, 0xA9, 0xCE,  // len 41, crc
      0x06,                                            // kInsert
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tid 4
      0x01, 0x00, 0x00, 0x00, 0x74,                    // table "t"
      0x03, 0x00,                                      // 3 values
      0x01, 0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // int -5
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // double 0.5
      0x03, 0x02, 0x00, 0x00, 0x00, 0x61, 0x62};       // string "ab"
  const std::vector<uint8_t> v2_batch = {
      0x2F, 0x00, 0x00, 0x00, 0xA9, 0xBE, 0x1B, 0x7C,  // len 47, crc
      0x07, 0x00, 0x00, 0x00,                          // tag 7
      0x15,                                            // kDmlBatch
      0x01, 0x00, 0x00, 0x00,                          // 1 op
      0x02,                                            // update
      0x01, 0x00, 0x00, 0x00, 0x74,                    // table "t"
      0x01, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // main 258
      0x03, 0x00,                                      // 3 values
      0x01, 0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // int -5
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // double 0.5
      0x03, 0x02, 0x00, 0x00, 0x00, 0x61, 0x62};       // string "ab"

  std::vector<uint8_t> insert;
  WireWriter insert_writer(&insert);
  insert_writer.U8(static_cast<uint8_t>(Opcode::kInsert));
  insert_writer.U64(4);
  insert_writer.DmlBody(DmlOp::kInsert, "t", RowLocation{}, row);
  EXPECT_EQ(EncodeFrame(1, 0, insert), v1_insert);

  std::vector<uint8_t> batch;
  WireWriter batch_writer(&batch);
  batch_writer.U8(static_cast<uint8_t>(Opcode::kDmlBatch));
  batch_writer.U32(1);
  batch_writer.U8(DmlOp::kUpdate);
  batch_writer.DmlBody(DmlOp::kUpdate, "t", RowLocation{true, 258}, row);
  EXPECT_EQ(EncodeFrame(2, 7, batch), v2_batch);

  FrameView frame;
  ASSERT_TRUE(NextFrame(1, v1_insert.data(), v1_insert.size(), &frame).ok());
  ASSERT_EQ(frame.consumed, v1_insert.size());
  WireReader insert_reader(frame.payload, frame.len);
  EXPECT_EQ(insert_reader.U8(), static_cast<uint8_t>(Opcode::kInsert));
  EXPECT_EQ(insert_reader.U64(), 4u);
  const DmlOp decoded_insert = insert_reader.DmlBody(DmlOp::kInsert);
  EXPECT_TRUE(insert_reader.Exhausted());
  EXPECT_EQ(decoded_insert.table, "t");
  EXPECT_EQ(decoded_insert.row, row);

  ASSERT_TRUE(NextFrame(2, v2_batch.data(), v2_batch.size(), &frame).ok());
  ASSERT_EQ(frame.consumed, v2_batch.size());
  EXPECT_EQ(frame.tag, 7u);
  WireReader batch_reader(frame.payload, frame.len);
  EXPECT_EQ(batch_reader.U8(), static_cast<uint8_t>(Opcode::kDmlBatch));
  EXPECT_EQ(batch_reader.U32(), 1u);
  const DmlOp decoded_update = batch_reader.BatchOp();
  EXPECT_TRUE(batch_reader.Exhausted());
  EXPECT_EQ(decoded_update.kind, DmlOp::kUpdate);
  EXPECT_EQ(decoded_update.loc, (RowLocation{true, 258}));
  EXPECT_EQ(decoded_update.row, row);
}

TEST(WireFormatTest, RowCountCannotOverallocate) {
  // A row header claiming 65535 values inside a 4-byte body must fail
  // cleanly instead of reserving gigabytes.
  std::vector<uint8_t> buf;
  WireWriter writer(&buf);
  writer.U16(0xFFFF);
  writer.U8(1);
  writer.U8(0);
  WireReader reader(buf.data(), buf.size());
  const auto row = reader.Row();
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(row.empty());
}

TEST(WireFormatTest, InDoubtCountCannotOverallocate) {
  // A fake shard answers the in-doubt query with a count of 2^32-1 and
  // no gtids. The client must refuse the truncated response instead of
  // reserving 34 GB for it.
  auto listener = CreateListener("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  std::thread fake([&listener] {
    int fd = -1;
    for (int i = 0; i < 2000 && fd < 0; ++i) {
      fd = ::accept(listener->get(), nullptr, nullptr);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(fd, 0);
    OwnedFd conn(fd);
    ASSERT_TRUE(ReadFrame(conn.get(), 2000).ok());
    std::vector<uint8_t> hello;
    WireWriter hello_writer(&hello);
    hello_writer.U8(static_cast<uint8_t>(Opcode::kHello));
    hello_writer.U8(static_cast<uint8_t>(WireCode::kOk));
    hello_writer.U16(1);
    hello_writer.U8(0);
    hello_writer.U64(99);
    ASSERT_TRUE(WriteFrame(conn.get(), hello).ok());
    ASSERT_TRUE(ReadFrame(conn.get(), 2000).ok());
    std::vector<uint8_t> in_doubt;
    WireWriter in_doubt_writer(&in_doubt);
    in_doubt_writer.U8(static_cast<uint8_t>(Opcode::kInDoubt));
    in_doubt_writer.U8(static_cast<uint8_t>(WireCode::kOk));
    in_doubt_writer.U32(0xFFFFFFFFu);
    ASSERT_TRUE(WriteFrame(conn.get(), in_doubt).ok());
  });

  ClientOptions options;
  options.port = *port;
  options.protocol_max = 1;
  options.auto_reconnect = false;
  Client client(options);
  ASSERT_TRUE(client.ConnectOnce().ok());
  auto gtids = client.InDoubt();
  ASSERT_FALSE(gtids.ok());
  EXPECT_EQ(gtids.status().code(), StatusCode::kIOError);
  EXPECT_NE(gtids.status().ToString().find("truncated in_doubt response"),
            std::string::npos);
  fake.join();
}

TEST(WireFormatTest, FrameRoundtripAndCrc) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  auto len_result = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(len_result.ok());
  EXPECT_EQ(*len_result, payload.size());
  EXPECT_TRUE(CheckFrameCrc(1, frame.data(),
                            frame.data() + kFrameHeaderBytes, *len_result)
                  .ok());
  // Flip one payload bit: CRC must catch it.
  frame[kFrameHeaderBytes + 2] ^= 0x40;
  EXPECT_TRUE(CheckFrameCrc(1, frame.data(),
                            frame.data() + kFrameHeaderBytes, *len_result)
                  .IsCorruption());
}

TEST(WireFormatTest, OversizedAndEmptyFramesRejected) {
  uint8_t header[kFrameHeaderBytes] = {};
  uint32_t len = kMaxFrameBytes + 1;
  std::memcpy(header, &len, sizeof(len));
  EXPECT_FALSE(DecodeFrameHeader(header).ok());
  len = 0;
  std::memcpy(header, &len, sizeof(len));
  EXPECT_FALSE(DecodeFrameHeader(header).ok());
  len = 16;
  std::memcpy(header, &len, sizeof(len));
  EXPECT_TRUE(DecodeFrameHeader(header).ok());
}

TEST(WireFormatTest, TaggedFrameRoundtripAndCrc) {
  const std::vector<uint8_t> payload = {9, 8, 7, 6};
  std::vector<uint8_t> frame = EncodeTaggedFrame(0xABCD1234u, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytesV2 + payload.size());
  auto len_result = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(len_result.ok());
  EXPECT_EQ(*len_result, payload.size());
  EXPECT_EQ(TaggedFrameTag(frame.data()), 0xABCD1234u);
  const uint8_t* body = frame.data() + kFrameHeaderBytesV2;
  EXPECT_TRUE(CheckTaggedFrameCrc(frame.data(), body, *len_result).ok());
  // Payload corruption is caught...
  frame[kFrameHeaderBytesV2 + 1] ^= 0x01;
  EXPECT_TRUE(
      CheckTaggedFrameCrc(frame.data(), body, *len_result).IsCorruption());
  frame[kFrameHeaderBytesV2 + 1] ^= 0x01;
  // ...and so is tag corruption: the CRC covers the tag, so a response
  // can never be attributed to the wrong request by a flipped tag bit.
  frame[8] ^= 0x01;
  EXPECT_TRUE(
      CheckTaggedFrameCrc(frame.data(), body, *len_result).IsCorruption());
}

/// Decodes the first `size` bytes of `stream` as a receiver would: frame
/// after frame until the decoder wants more bytes or fails. Returns the
/// frames read; `status` gets the decoder's verdict on the next one.
std::vector<FrameView> ScanFrames(uint16_t version,
                                  const std::vector<uint8_t>& stream,
                                  size_t size, Status* status) {
  std::vector<FrameView> frames;
  size_t pos = 0;
  FrameView frame;
  while ((*status = NextFrame(version, stream.data() + pos, size - pos,
                              &frame))
             .ok() &&
         frame.consumed > 0) {
    frames.push_back(frame);
    pos += frame.consumed;
  }
  return frames;
}

TEST(WireFormatTest, DecoderWaitsForEachFramesLastByte) {
  // Opcode-only payloads, a small body, and one payload larger than the
  // server's 16 KiB recv chunk, fed with every prefix of the stream.
  const std::vector<std::vector<uint8_t>> payloads = {
      {static_cast<uint8_t>(Opcode::kPing)},
      {static_cast<uint8_t>(Opcode::kCount), 1, 2, 3},
      std::vector<uint8_t>(20'000, 0x5A),
      {static_cast<uint8_t>(Opcode::kPing)}};
  for (const uint16_t version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    std::vector<uint8_t> stream;
    std::vector<size_t> ends;  // one past each frame's last byte
    for (size_t i = 0; i < payloads.size(); ++i) {
      const std::vector<uint8_t> frame =
          EncodeFrame(version, static_cast<uint32_t>(100 + i), payloads[i]);
      stream.insert(stream.end(), frame.begin(), frame.end());
      ends.push_back(stream.size());
    }
    size_t pos = 0;   // where the next frame starts
    size_t next = 0;  // index of the next frame
    for (size_t available = 0; available <= stream.size(); ++available) {
      FrameView frame;
      ASSERT_TRUE(NextFrame(version, stream.data() + pos, available - pos,
                            &frame)
                      .ok())
          << available << " bytes";
      if (available < ends[next]) {
        ASSERT_EQ(frame.consumed, 0u) << available << " bytes";
        continue;
      }
      ASSERT_EQ(frame.consumed, ends[next] - pos);
      EXPECT_EQ(frame.tag, version >= 2 ? 100 + next : 0u);
      EXPECT_EQ(std::vector<uint8_t>(frame.payload, frame.payload + frame.len),
                payloads[next]);
      pos = ends[next];
      if (++next == payloads.size()) break;
    }
    EXPECT_EQ(next, payloads.size());
  }
}

TEST(WireFormatTest, DecoderReportsEachErrorAtItsFrame) {
  // Two good frames, a bad one, a good one. The error must surface once
  // the bad frame is reached (its header for a bad length, its last byte
  // for a bad CRC) and never for the frames before it.
  const std::vector<uint8_t> ping = {static_cast<uint8_t>(Opcode::kPing)};
  struct Case {
    const char* name;
    uint16_t version;
    std::optional<uint32_t> length;  // rewrites the bad frame's length
    size_t flip;  // byte of the bad frame to flip, 0 for none
    StatusCode code;
  };
  const Case cases[] = {
      {"length 0 (v1)", 1, 0u, 0, StatusCode::kInvalidArgument},
      {"length 0 (v2)", 2, 0u, 0, StatusCode::kInvalidArgument},
      {"length cap + 1 (v1)", 1, kMaxFrameBytes + 1, 0,
       StatusCode::kInvalidArgument},
      {"length cap + 1 (v2)", 2, kMaxFrameBytes + 1, 0,
       StatusCode::kInvalidArgument},
      {"payload bit (v1)", 1, std::nullopt, kFrameHeaderBytes,
       StatusCode::kCorruption},
      {"payload bit (v2)", 2, std::nullopt, kFrameHeaderBytesV2,
       StatusCode::kCorruption},
      {"tag bit (v2)", 2, std::nullopt, 8, StatusCode::kCorruption},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> stream;
    for (uint32_t tag = 1; tag <= 2; ++tag) {
      const std::vector<uint8_t> good = EncodeFrame(c.version, tag, ping);
      stream.insert(stream.end(), good.begin(), good.end());
    }
    const size_t bad_start = stream.size();
    std::vector<uint8_t> bad = EncodeFrame(c.version, 3, ping);
    size_t error_at = bad_start + bad.size();
    if (c.length) {
      std::memcpy(bad.data(), &*c.length, sizeof(*c.length));
      bad.resize(FrameHeaderBytes(c.version));  // no body follows
      error_at = bad_start + bad.size();
    }
    if (c.flip != 0) bad[c.flip] ^= 0x01;
    stream.insert(stream.end(), bad.begin(), bad.end());
    const std::vector<uint8_t> after = EncodeFrame(c.version, 4, ping);
    stream.insert(stream.end(), after.begin(), after.end());

    for (size_t available = 0; available <= stream.size(); ++available) {
      Status status;
      const std::vector<FrameView> frames =
          ScanFrames(c.version, stream, available, &status);
      if (available < error_at) {
        EXPECT_TRUE(status.ok()) << available << " bytes: "
                                 << status.ToString();
        EXPECT_LE(frames.size(), 2u);
      } else {
        EXPECT_EQ(status.code(), c.code) << available << " bytes";
        EXPECT_EQ(frames.size(), 2u);
      }
    }
  }
}

TEST(WireFormatTest, FrameHeaderWritesTheHandWrittenBytes) {
  // The header encoder plus the payload must equal the frames written out
  // by hand: v1 [u32 len][u32 masked CRC32C(payload)], v2 [u32 len]
  // [u32 masked CRC32C(tag || payload)][u32 tag]. The server sends its
  // response header exactly as encoded here.
  std::vector<uint8_t> payload;
  WireWriter payload_writer(&payload);
  payload_writer.U8(static_cast<uint8_t>(Opcode::kCount));
  payload_writer.U8(static_cast<uint8_t>(WireCode::kOk));
  payload_writer.U64(12345);
  const auto len = static_cast<uint32_t>(payload.size());
  const uint32_t tag = 0xABCD1234u;

  std::vector<uint8_t> v1;
  WireWriter v1_writer(&v1);
  v1_writer.U32(len);
  v1_writer.U32(MaskCrc(Crc32c(payload.data(), payload.size())));
  v1.insert(v1.end(), payload.begin(), payload.end());

  std::vector<uint8_t> tagged;
  WireWriter tagged_writer(&tagged);
  tagged_writer.U32(tag);
  tagged.insert(tagged.end(), payload.begin(), payload.end());
  std::vector<uint8_t> v2;
  WireWriter v2_writer(&v2);
  v2_writer.U32(len);
  v2_writer.U32(MaskCrc(Crc32c(tagged.data(), tagged.size())));
  v2_writer.U32(tag);
  v2.insert(v2.end(), payload.begin(), payload.end());

  for (const auto& [version, expected] :
       {std::pair<uint16_t, const std::vector<uint8_t>&>{1, v1},
        std::pair<uint16_t, const std::vector<uint8_t>&>{2, v2}}) {
    SCOPED_TRACE("v" + std::to_string(version));
    uint8_t header[kFrameHeaderBytesV2];
    const uint32_t header_len =
        EncodeFrameHeader(version, tag, payload.data(), len, header);
    EXPECT_EQ(header_len, FrameHeaderBytes(version));
    std::vector<uint8_t> encoded(header, header + header_len);
    encoded.insert(encoded.end(), payload.begin(), payload.end());
    EXPECT_EQ(encoded, expected);
    EXPECT_EQ(EncodeFrame(version, tag, payload), expected);
  }
  EXPECT_EQ(EncodeFrame(payload), v1);
  EXPECT_EQ(EncodeTaggedFrame(tag, payload), v2);
}

TEST(WireFormatTest, StatusMappingIsByteStable) {
  // Every engine StatusCode survives the wire byte-for-byte.
  for (int code = 0; code <= 10; ++code) {
    const Status status(static_cast<StatusCode>(code), "m");
    const WireCode wire = WireCodeFromStatus(status);
    EXPECT_EQ(static_cast<int>(wire), code);
    const Status back = StatusFromWire(wire, "m");
    EXPECT_EQ(back.code(), status.code());
  }
  // Serving-layer codes come back as retryable IOError.
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kOverloaded));
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kDraining));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kProtocolError));
  EXPECT_EQ(StatusFromWire(WireCode::kOverloaded, "x").code(),
            StatusCode::kIOError);
}

// --- Server-facing corruption matrix --------------------------------------

class CorruptionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = nvm::TempPath("net_proto_test");
    std::filesystem::create_directories(dir_);
    core::DatabaseOptions options;
    options.mode = core::DurabilityMode::kNvm;
    options.region_size = 64 << 20;
    options.data_dir = dir_;
    auto db_result = core::Database::Create(options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    db_ = std::move(*db_result);
    ServerOptions server_options;
    server_options.num_workers = 1;
    auto server_result = Server::Start(db_.get(), server_options);
    ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
    server_ = std::move(*server_result);
  }

  void TearDown() override {
    server_->Drain();
    server_->Wait();
    server_.reset();
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Result<OwnedFd> Dial() {
    return ConnectTcp("127.0.0.1", server_->port(), 2000);
  }

  /// Performs a valid v1 handshake on `fd`. The legacy matrix pins the
  /// offered range to v1 so the raw frames the tests then write keep
  /// their v1 framing against a v2-capable server (that cross-version
  /// path is itself part of the matrix).
  void Handshake(int fd) {
    std::vector<uint8_t> hello;
    WireWriter writer(&hello);
    writer.U8(static_cast<uint8_t>(Opcode::kHello));
    writer.U32(kHelloMagic);
    writer.U16(kProtocolVersionMin);
    writer.U16(kProtocolVersionMin);
    ASSERT_TRUE(WriteFrame(fd, hello).ok());
    auto resp = ReadFrame(fd, 2000);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_GE(resp->size(), 2u);
    EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kOk));
  }

  /// Performs a v2 handshake requesting `window`; returns the granted
  /// window. The hello exchange itself is always v1-framed.
  uint32_t HandshakeV2(int fd, uint32_t window = 0) {
    std::vector<uint8_t> hello;
    WireWriter writer(&hello);
    writer.U8(static_cast<uint8_t>(Opcode::kHello));
    writer.U32(kHelloMagic);
    writer.U16(kProtocolVersionMin);
    writer.U16(kProtocolVersionMax);
    writer.U32(window);
    EXPECT_TRUE(WriteFrame(fd, hello).ok());
    auto resp = ReadFrame(fd, 2000);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok() || resp->size() < 2) return 0;
    EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kOk));
    WireReader reader(resp->data() + 2, resp->size() - 2);
    const uint16_t chosen = reader.U16();
    EXPECT_EQ(chosen, 2);
    (void)reader.U8();   // durability mode
    (void)reader.U64();  // session id
    const uint32_t granted = reader.U32();
    EXPECT_TRUE(reader.ok());
    return granted;
  }

  /// Builds a tagged v2 ping frame.
  static std::vector<uint8_t> TaggedPing(uint32_t tag) {
    std::vector<uint8_t> ping;
    WireWriter writer(&ping);
    writer.U8(static_cast<uint8_t>(Opcode::kPing));
    return EncodeTaggedFrame(tag, ping);
  }

  /// The server must still answer a fresh, well-formed connection.
  void ExpectServerAlive() {
    ClientOptions options;
    options.port = server_->port();
    Client client(options);
    ASSERT_TRUE(client.ConnectOnce().ok());
    EXPECT_TRUE(client.Ping().ok());
  }

  std::string dir_;
  std::unique_ptr<core::Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(CorruptionMatrixTest, TruncatedFrameClosesConnectionCleanly) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  Handshake(fd_result->get());
  // Announce 100 bytes, send 3, hang up. The server must drop the
  // connection without stalling or crashing.
  std::vector<uint8_t> partial = {100, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9};
  ASSERT_TRUE(SendAll(fd_result->get(), partial.data(), partial.size()).ok());
  fd_result->Reset();
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, OversizedLengthRejected) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  Handshake(fd_result->get());
  uint8_t header[kFrameHeaderBytes] = {};
  const uint32_t len = kMaxFrameBytes + 1;
  std::memcpy(header, &len, sizeof(len));
  ASSERT_TRUE(SendAll(fd_result->get(), header, sizeof(header)).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_GE(resp->size(), 2u);
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  // Connection closes after the error frame.
  uint8_t byte;
  EXPECT_FALSE(RecvAll(fd_result->get(), &byte, 1, 2000).ok());
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, BadCrcRejected) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  Handshake(fd_result->get());
  std::vector<uint8_t> ping;
  WireWriter writer(&ping);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  std::vector<uint8_t> frame = EncodeFrame(ping);
  frame[4] ^= 0xFF;  // corrupt the CRC field
  ASSERT_TRUE(SendAll(fd_result->get(), frame.data(), frame.size()).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, UnknownOpcodeKeepsConnection) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  Handshake(fd_result->get());
  std::vector<uint8_t> bogus = {0xEE, 1, 2, 3};
  ASSERT_TRUE(WriteFrame(fd_result->get(), bogus).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kNotSupported));
  // Frame boundary was intact, so the connection survives.
  std::vector<uint8_t> ping;
  WireWriter writer(&ping);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  ASSERT_TRUE(WriteFrame(fd_result->get(), ping).ok());
  auto pong = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ((*pong)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(CorruptionMatrixTest, CrossVersionHandshakeFailsCleanly) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  std::vector<uint8_t> hello;
  WireWriter writer(&hello);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U32(kHelloMagic);
  writer.U16(kProtocolVersionMax + 1);  // client requires a future version
  writer.U16(kProtocolVersionMax + 5);
  ASSERT_TRUE(WriteFrame(fd_result->get(), hello).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_GE(resp->size(), 2u);
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kNotSupported));
  WireReader reader(resp->data() + 2, resp->size() - 2);
  const std::string message = reader.Str();
  EXPECT_NE(message.find("no common protocol version"), std::string::npos);
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, BadMagicIsProtocolError) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  std::vector<uint8_t> hello;
  WireWriter writer(&hello);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U32(0x12345678);
  writer.U16(1);
  writer.U16(1);
  ASSERT_TRUE(WriteFrame(fd_result->get(), hello).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, RequestBeforeHandshakeRejected) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  std::vector<uint8_t> ping;
  WireWriter writer(&ping);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  ASSERT_TRUE(WriteFrame(fd_result->get(), ping).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, MalformedBodyKeepsConnection) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  Handshake(fd_result->get());
  // A kInsert with a 2-byte body (needs tid + table + row).
  std::vector<uint8_t> garbage = {static_cast<uint8_t>(Opcode::kInsert), 7};
  ASSERT_TRUE(WriteFrame(fd_result->get(), garbage).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ((*resp)[1],
            static_cast<uint8_t>(WireCode::kInvalidArgument));
  // Still usable.
  std::vector<uint8_t> ping;
  WireWriter writer(&ping);
  writer.U8(static_cast<uint8_t>(Opcode::kPing));
  ASSERT_TRUE(WriteFrame(fd_result->get(), ping).ok());
  EXPECT_TRUE(ReadFrame(fd_result->get(), 2000).ok());
}

// --- v2 (tagged frames) matrix --------------------------------------------

TEST_F(CorruptionMatrixTest, V2HandshakeNegotiatesWindow) {
  // Default request (0) gets the server default window.
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  EXPECT_EQ(HandshakeV2(fd_result->get(), 0), kDefaultPipelineWindow);
  // An absurd request is clamped to the server cap, never granted.
  auto fd2_result = Dial();
  ASSERT_TRUE(fd2_result.ok());
  EXPECT_EQ(HandshakeV2(fd2_result->get(), 1'000'000u),
            kMaxPipelineWindow);
}

TEST_F(CorruptionMatrixTest, V1HelloAgainstV2ServerStaysV1) {
  // A legacy client offering only v1 must get a v1 session whose hello
  // response is byte-for-byte the v1 shape — no trailing window field.
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  std::vector<uint8_t> hello;
  WireWriter writer(&hello);
  writer.U8(static_cast<uint8_t>(Opcode::kHello));
  writer.U32(kHelloMagic);
  writer.U16(1);
  writer.U16(1);
  ASSERT_TRUE(WriteFrame(fd_result->get(), hello).ok());
  auto resp = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  WireReader reader(resp->data(), resp->size());
  (void)reader.U8();
  EXPECT_EQ(reader.U8(), static_cast<uint8_t>(WireCode::kOk));
  EXPECT_EQ(reader.U16(), 1);  // negotiated down to v1
  (void)reader.U8();           // durability mode
  (void)reader.U64();          // session id
  EXPECT_TRUE(reader.Exhausted());  // v1 shape: no window field
  // And the session really is v1-framed.
  std::vector<uint8_t> ping;
  WireWriter ping_writer(&ping);
  ping_writer.U8(static_cast<uint8_t>(Opcode::kPing));
  ASSERT_TRUE(WriteFrame(fd_result->get(), ping).ok());
  auto pong = ReadFrame(fd_result->get(), 2000);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ((*pong)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(CorruptionMatrixTest, V2TaggedPingEchoesTag) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  ASSERT_GT(HandshakeV2(fd_result->get()), 0u);
  const std::vector<uint8_t> frame = TaggedPing(0xDEAD0001u);
  ASSERT_TRUE(SendAll(fd_result->get(), frame.data(), frame.size()).ok());
  uint32_t tag = 0;
  auto resp = RecvFrame(fd_result->get(), 2, 2000, &tag);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(tag, 0xDEAD0001u);
  ASSERT_GE(resp->size(), 2u);
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(CorruptionMatrixTest, CorruptedTagIsCaughtByCrc) {
  // The v2 CRC covers the tag: a tag bit flipped in flight must be a
  // protocol error (stream desync), not a response for the wrong
  // request.
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  ASSERT_GT(HandshakeV2(fd_result->get()), 0u);
  std::vector<uint8_t> frame = TaggedPing(42);
  frame[8] ^= 0x01;  // flip a tag bit, CRC now stale
  ASSERT_TRUE(SendAll(fd_result->get(), frame.data(), frame.size()).ok());
  auto resp = RecvFrame(fd_result->get(), 2, 2000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_GE(resp->size(), 2u);
  EXPECT_EQ((*resp)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  // The stream cannot be resynchronised: connection closes.
  uint8_t byte;
  EXPECT_FALSE(RecvAll(fd_result->get(), &byte, 1, 2000).ok());
  ExpectServerAlive();
}

TEST_F(CorruptionMatrixTest, CorruptFrameEndsItsBatch) {
  // One write: a ping, a ping with a flipped payload bit, a ping. The
  // frame before the corrupt one is answered, then the protocol error
  // with tag 0, then EOF: nothing behind the corrupt frame runs, not
  // even a hoistable read (DESIGN.md §17.2).
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  ASSERT_GT(HandshakeV2(fd_result->get()), 0u);
  std::vector<uint8_t> wire = TaggedPing(1);
  std::vector<uint8_t> corrupt = TaggedPing(2);
  corrupt.back() ^= 0x01;  // the opcode byte; the CRC is now stale
  const std::vector<uint8_t> behind = TaggedPing(3);
  wire.insert(wire.end(), corrupt.begin(), corrupt.end());
  wire.insert(wire.end(), behind.begin(), behind.end());
  ASSERT_TRUE(SendAll(fd_result->get(), wire.data(), wire.size()).ok());
  uint32_t tag = 99;
  auto first = RecvFrame(fd_result->get(), 2, 2000, &tag);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(tag, 1u);
  EXPECT_EQ((*first)[1], static_cast<uint8_t>(WireCode::kOk));
  auto error = RecvFrame(fd_result->get(), 2, 2000, &tag);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(tag, 0u);
  EXPECT_EQ((*error)[1], static_cast<uint8_t>(WireCode::kProtocolError));
  uint8_t byte;
  EXPECT_EQ(RecvAll(fd_result->get(), &byte, 1, 2000).message(),
            "connection closed by peer");
}

TEST_F(CorruptionMatrixTest, DuplicateTagRejectedConnectionSurvives) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  ASSERT_GT(HandshakeV2(fd_result->get()), 0u);
  // Two requests with the same tag in ONE write, so they land in one
  // server batch and the second is parsed while the first is still
  // outstanding (responses flush after the batch).
  std::vector<uint8_t> both = TaggedPing(7);
  const std::vector<uint8_t> dup = TaggedPing(7);
  both.insert(both.end(), dup.begin(), dup.end());
  ASSERT_TRUE(SendAll(fd_result->get(), both.data(), both.size()).ok());
  uint32_t first_tag = 0;
  uint32_t second_tag = 0;
  auto first = RecvFrame(fd_result->get(), 2, 2000, &first_tag);
  auto second = RecvFrame(fd_result->get(), 2, 2000, &second_tag);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first_tag, 7u);
  EXPECT_EQ(second_tag, 7u);
  EXPECT_EQ((*first)[1], static_cast<uint8_t>(WireCode::kOk));
  EXPECT_EQ((*second)[1], static_cast<uint8_t>(WireCode::kInvalidArgument));
  // The frame boundary stayed intact, so the connection survives.
  const std::vector<uint8_t> again = TaggedPing(8);
  ASSERT_TRUE(SendAll(fd_result->get(), again.data(), again.size()).ok());
  auto third = RecvFrame(fd_result->get(), 2, 2000);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(CorruptionMatrixTest, WindowOverflowShedsRetryably) {
  auto fd_result = Dial();
  ASSERT_TRUE(fd_result.ok());
  ASSERT_EQ(HandshakeV2(fd_result->get(), 1), 1u);  // window of one
  // Two outstanding requests against a window of 1, in one write: the
  // second must be shed with the RETRYABLE admission code — overflowing
  // the window is mis-pacing, not corruption, so never a close.
  std::vector<uint8_t> both = TaggedPing(1);
  const std::vector<uint8_t> extra = TaggedPing(2);
  both.insert(both.end(), extra.begin(), extra.end());
  ASSERT_TRUE(SendAll(fd_result->get(), both.data(), both.size()).ok());
  auto first = RecvFrame(fd_result->get(), 2, 2000);
  auto second = RecvFrame(fd_result->get(), 2, 2000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*first)[1], static_cast<uint8_t>(WireCode::kOk));
  EXPECT_EQ((*second)[1], static_cast<uint8_t>(WireCode::kOverloaded));
  EXPECT_TRUE(IsRetryableWireCode(static_cast<WireCode>((*second)[1])));
  // The connection keeps serving once the window has room again.
  const std::vector<uint8_t> again = TaggedPing(3);
  ASSERT_TRUE(SendAll(fd_result->get(), again.data(), again.size()).ok());
  auto third = RecvFrame(fd_result->get(), 2, 2000);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)[1], static_cast<uint8_t>(WireCode::kOk));
}

TEST_F(CorruptionMatrixTest, GarbageByteStormNeverCrashes) {
  // Deterministic pseudo-random garbage straight onto the socket; the
  // server must reject and close without dying.
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 8; ++round) {
    auto fd_result = Dial();
    ASSERT_TRUE(fd_result.ok());
    std::vector<uint8_t> noise(256 + round * 64);
    for (auto& byte : noise) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<uint8_t>(rng >> 33);
    }
    (void)SendAll(fd_result->get(), noise.data(), noise.size());
    fd_result->Reset();
  }
  ExpectServerAlive();
  EXPECT_GE(server_->counters().protocol_errors, 1u);
}

}  // namespace
}  // namespace hyrise_nv::net
