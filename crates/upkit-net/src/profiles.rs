//! Link profiles and transfer accounting.
//!
//! The paper's two network configurations are a BLE GATT connection (push,
//! smartphone → device) and an IEEE 802.15.4 / 6LoWPAN network with a
//! border router (pull, device → update server over CoAP). The simulator
//! does not move real radio frames; it moves the real bytes and charges
//! each chunk against a [`LinkProfile`] whose constants are set to
//! datasheet-order-of-magnitude values for the paper's platforms.

/// Timing model of one radio link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkProfile {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Maximum payload bytes per link-layer chunk.
    pub mtu: usize,
    /// Sustained goodput in bytes per second.
    pub throughput_bytes_per_sec: u64,
    /// Round-trip time in microseconds (request/response exchanges).
    pub rtt_micros: u64,
    /// Fixed per-chunk overhead in microseconds (connection-event
    /// scheduling, MAC/6LoWPAN framing).
    pub per_chunk_overhead_micros: u64,
}

impl LinkProfile {
    /// BLE 4.2 GATT notifications at a conservative connection interval.
    ///
    /// Calibrated so a 100 kB push propagation lands near the paper's
    /// 47.7 s (Fig. 8a): ~2.1 kB/s effective goodput.
    #[must_use]
    pub fn ble_gatt() -> Self {
        Self {
            name: "BLE GATT",
            mtu: 244,
            throughput_bytes_per_sec: 2_500,
            rtt_micros: 60_000,
            per_chunk_overhead_micros: 2_500,
        }
    }

    /// IEEE 802.15.4 + 6LoWPAN + CoAP blockwise: 64-byte confirmed blocks,
    /// each one a request/response round trip (charged by a pull session).
    ///
    /// Calibrated so a 100 kB pull propagation lands near the paper's
    /// 41.7 s (Fig. 8a) — slightly *faster* than BLE push despite the
    /// smaller blocks, as the paper measures.
    #[must_use]
    pub fn ieee802154_6lowpan() -> Self {
        Self {
            name: "802.15.4/6LoWPAN",
            mtu: 64,
            throughput_bytes_per_sec: 12_500,
            rtt_micros: 14_000,
            per_chunk_overhead_micros: 4_000,
        }
    }

    /// The gateway's upstream/backhaul link (gateway ↔ update server over
    /// the Internet): orders of magnitude faster than the constrained
    /// radios, but not free — a caching proxy still serializes its block
    /// fetches on it, which is where shared-capacity contention between
    /// overlapping campaigns shows up.
    #[must_use]
    pub fn wifi_backhaul() -> Self {
        Self {
            name: "WiFi backhaul",
            mtu: 1_024,
            throughput_bytes_per_sec: 250_000,
            rtt_micros: 20_000,
            per_chunk_overhead_micros: 500,
        }
    }

    /// The same radio relayed over `hops` store-and-forward mesh links:
    /// round trips and per-chunk scheduling overhead scale with the hop
    /// count while the MTU and goodput stay those of the single radio.
    /// `hops = 1` (or 0) is the link itself.
    #[must_use]
    pub fn multi_hop(&self, hops: u32) -> Self {
        let hops = u64::from(hops.max(1));
        Self {
            name: self.name,
            mtu: self.mtu,
            throughput_bytes_per_sec: self.throughput_bytes_per_sec,
            rtt_micros: self.rtt_micros.saturating_mul(hops),
            per_chunk_overhead_micros: self.per_chunk_overhead_micros.saturating_mul(hops),
        }
    }

    /// Microseconds to move `bytes` as payload (excluding per-chunk costs).
    #[must_use]
    pub fn payload_micros(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(1_000_000) / self.throughput_bytes_per_sec.max(1)
    }

    /// Full time to move `bytes` over this link in one direction: payload
    /// time plus per-chunk overhead plus one round trip of latency. The
    /// caching proxy charges upstream block fetches with this.
    #[must_use]
    pub fn transfer_micros(&self, bytes: u64) -> u64 {
        self.payload_micros(bytes)
            + self.chunks_for(bytes) * self.per_chunk_overhead_micros
            + self.rtt_micros
    }

    /// Number of MTU-sized chunks needed for `bytes`.
    #[must_use]
    pub fn chunks_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.mtu as u64)
    }
}

/// Cumulative radio accounting for one update session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferAccounting {
    /// Payload bytes moved toward the device.
    pub bytes_to_device: u64,
    /// Payload bytes moved from the device (tokens, acknowledgements).
    pub bytes_from_device: u64,
    /// Link-layer chunks used.
    pub chunks: u64,
    /// Round trips performed.
    pub round_trips: u64,
    /// Total radio-on time in microseconds.
    pub elapsed_micros: u64,
}

impl TransferAccounting {
    /// Charges a data transfer toward the device.
    pub fn charge_to_device(&mut self, link: &LinkProfile, bytes: u64) {
        let chunks = link.chunks_for(bytes);
        self.bytes_to_device += bytes;
        self.chunks += chunks;
        self.elapsed_micros += link.payload_micros(bytes) + chunks * link.per_chunk_overhead_micros;
    }

    /// Charges a data transfer from the device.
    pub fn charge_from_device(&mut self, link: &LinkProfile, bytes: u64) {
        let chunks = link.chunks_for(bytes);
        self.bytes_from_device += bytes;
        self.chunks += chunks;
        self.elapsed_micros += link.payload_micros(bytes) + chunks * link.per_chunk_overhead_micros;
    }

    /// Charges a request/response round trip.
    pub fn charge_round_trip(&mut self, link: &LinkProfile) {
        self.round_trips += 1;
        self.elapsed_micros += link.rtt_micros;
    }

    /// Charges radio-idle waiting time (retransmission timeouts): no bytes
    /// or chunks move, only virtual time passes.
    pub fn charge_wait(&mut self, micros: u64) {
        self.elapsed_micros += micros;
    }

    /// Merges another accounting record into this one.
    pub fn merge(&mut self, other: &TransferAccounting) {
        self.bytes_to_device += other.bytes_to_device;
        self.bytes_from_device += other.bytes_from_device;
        self.chunks += other.chunks;
        self.round_trips += other.round_trips;
        self.elapsed_micros += other.elapsed_micros;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_time_scales_linearly() {
        let link = LinkProfile::ble_gatt();
        assert_eq!(link.payload_micros(0), 0);
        assert_eq!(
            link.payload_micros(2 * link.throughput_bytes_per_sec),
            2_000_000
        );
    }

    #[test]
    fn chunk_count_rounds_up() {
        let link = LinkProfile::ieee802154_6lowpan();
        assert_eq!(link.chunks_for(0), 0);
        assert_eq!(link.chunks_for(1), 1);
        assert_eq!(link.chunks_for(64), 1);
        assert_eq!(link.chunks_for(65), 2);
    }

    #[test]
    fn accounting_accumulates() {
        let link = LinkProfile::ble_gatt();
        let mut acc = TransferAccounting::default();
        acc.charge_to_device(&link, 1000);
        acc.charge_from_device(&link, 10);
        acc.charge_round_trip(&link);
        assert_eq!(acc.bytes_to_device, 1000);
        assert_eq!(acc.bytes_from_device, 10);
        assert_eq!(acc.round_trips, 1);
        let expected = link.payload_micros(1000)
            + link.chunks_for(1000) * link.per_chunk_overhead_micros
            + link.payload_micros(10)
            + link.per_chunk_overhead_micros
            + link.rtt_micros;
        assert_eq!(acc.elapsed_micros, expected);
    }

    #[test]
    fn merge_sums_fields() {
        let link = LinkProfile::ble_gatt();
        let mut a = TransferAccounting::default();
        a.charge_to_device(&link, 500);
        let mut b = TransferAccounting::default();
        b.charge_round_trip(&link);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.bytes_to_device, 500);
        assert_eq!(merged.round_trips, 1);
        assert_eq!(merged.elapsed_micros, a.elapsed_micros + b.elapsed_micros);
    }

    #[test]
    fn multi_hop_scales_latency_not_goodput() {
        let one = LinkProfile::ieee802154_6lowpan();
        let three = one.multi_hop(3);
        assert_eq!(three.mtu, one.mtu);
        assert_eq!(three.throughput_bytes_per_sec, one.throughput_bytes_per_sec);
        assert_eq!(three.rtt_micros, 3 * one.rtt_micros);
        assert_eq!(
            three.per_chunk_overhead_micros,
            3 * one.per_chunk_overhead_micros
        );
        // Degenerate hop counts collapse to the single link.
        assert_eq!(one.multi_hop(0), one);
        assert_eq!(one.multi_hop(1), one);
    }

    #[test]
    fn transfer_micros_includes_latency_and_overhead() {
        let link = LinkProfile::wifi_backhaul();
        let bytes = 4_096u64;
        assert_eq!(
            link.transfer_micros(bytes),
            link.payload_micros(bytes)
                + link.chunks_for(bytes) * link.per_chunk_overhead_micros
                + link.rtt_micros
        );
        // The backhaul moves a block orders of magnitude faster than the
        // constrained radio moves it.
        let lowpan = LinkProfile::ieee802154_6lowpan();
        assert!(link.transfer_micros(4_096) * 10 < lowpan.transfer_micros(4_096));
    }

    #[test]
    fn propagation_shape_matches_fig8a() {
        // Fig. 8a: 100 kB propagation takes ~47.7 s over BLE push and
        // ~41.7 s over 6LoWPAN pull — pull is slightly faster on the wire
        // (the pull total only loses in the loading phase).
        let ble = LinkProfile::ble_gatt();
        let lowpan = LinkProfile::ieee802154_6lowpan();
        let bytes = 100_000u64;
        let mut push = TransferAccounting::default();
        push.charge_to_device(&ble, bytes);
        let mut pull = TransferAccounting::default();
        pull.charge_to_device(&lowpan, bytes);
        for _ in 0..lowpan.chunks_for(bytes) {
            pull.charge_round_trip(&lowpan);
        }
        let push_secs = push.elapsed_micros as f64 / 1e6;
        let pull_secs = pull.elapsed_micros as f64 / 1e6;
        assert!((40.0..55.0).contains(&push_secs), "push {push_secs:.1}s");
        assert!((35.0..48.0).contains(&pull_secs), "pull {pull_secs:.1}s");
        assert!(
            pull_secs < push_secs,
            "pull propagation is faster on the wire"
        );
    }
}
