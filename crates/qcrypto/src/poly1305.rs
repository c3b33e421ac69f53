//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Arithmetic uses `u64` products over 26-bit limbs. [`Poly1305`] is the
//! incremental form — the AEAD feeds it AAD, padding, ciphertext and lengths
//! as separate pieces instead of concatenating them first — and [`tag`] the
//! one-shot wrapper.

/// Incremental Poly1305 state for one (one-time) key.
pub struct Poly1305 {
    /// Clamped `r` in 26-bit limbs.
    r: [u64; 5],
    /// The accumulator, limbs partially reduced between blocks.
    h: [u64; 5],
    /// `s`, added to the accumulator at the end.
    s: u128,
    /// Bytes of an incomplete block carried between `update` calls.
    partial: [u8; 16],
    partial_len: usize,
}

impl Poly1305 {
    /// Starts a tag computation under the 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        // r is clamped per RFC 8439.
        let mut r = [0u8; 16];
        r.copy_from_slice(&key[..16]);
        r[3] &= 15;
        r[7] &= 15;
        r[11] &= 15;
        r[15] &= 15;
        r[4] &= 252;
        r[8] &= 252;
        r[12] &= 252;

        let word = |at: usize| u64::from(u32::from_le_bytes(r[at..at + 4].try_into().unwrap()));
        Poly1305 {
            r: [
                word(0) & 0x3ffffff,
                (word(3) >> 2) & 0x3ffff03,
                (word(6) >> 4) & 0x3ffc0ff,
                (word(9) >> 6) & 0x3f03fff,
                (word(12) >> 8) & 0x00fffff,
            ],
            h: [0; 5],
            s: u128::from_le_bytes(key[16..32].try_into().unwrap()),
            partial: [0; 16],
            partial_len: 0,
        }
    }

    /// Absorbs `data`; calls may split the message anywhere.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.partial_len > 0 {
            let take = data.len().min(16 - self.partial_len);
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&data[..take]);
            self.partial_len += take;
            data = &data[take..];
            if self.partial_len < 16 {
                return;
            }
            let block = self.partial;
            self.block(&block, 1);
            self.partial_len = 0;
        }
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            self.block(block.try_into().expect("16-byte chunk"), 1);
        }
        let tail = blocks.remainder();
        self.partial[..tail.len()].copy_from_slice(tail);
        self.partial_len = tail.len();
    }

    /// h = (h + block + high_bit·2^128) · r  (mod 2^130 - 5)
    fn block(&mut self, block: &[u8; 16], high_bit: u64) {
        let [r0, r1, r2, r3, r4] = self.r;
        let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);
        let word = |at: usize| u64::from(u32::from_le_bytes(block[at..at + 4].try_into().unwrap()));

        let h0 = self.h[0] + (word(0) & 0x3ffffff);
        let h1 = self.h[1] + ((word(3) >> 2) & 0x3ffffff);
        let h2 = self.h[2] + ((word(6) >> 4) & 0x3ffffff);
        let h3 = self.h[3] + ((word(9) >> 6) & 0x3ffffff);
        let h4 = self.h[4] + ((word(12) >> 8) | (high_bit << 24));

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c;
        c = d0 >> 26;
        let h0 = d0 & 0x3ffffff;
        let d1 = d1 + c;
        c = d1 >> 26;
        let h1 = d1 & 0x3ffffff;
        let d2 = d2 + c;
        c = d2 >> 26;
        let h2 = d2 & 0x3ffffff;
        let d3 = d3 + c;
        c = d3 >> 26;
        let h3 = d3 & 0x3ffffff;
        let d4 = d4 + c;
        c = d4 >> 26;
        let h4 = d4 & 0x3ffffff;
        let h0 = h0 + c * 5;
        c = h0 >> 26;
        self.h = [h0 & 0x3ffffff, h1 + c, h2, h3, h4];
    }

    /// Absorbs any incomplete last block and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.partial_len > 0 {
            // A short block is followed by a 1 byte (2^(8·len)) instead of
            // carrying the 2^128 bit.
            let mut block = [0u8; 16];
            block[..self.partial_len].copy_from_slice(&self.partial[..self.partial_len]);
            block[self.partial_len] = 1;
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;

        // Full carry and reduction mod 2^130 - 5.
        let mut c = h1 >> 26;
        h1 &= 0x3ffffff;
        h2 += c;
        c = h2 >> 26;
        h2 &= 0x3ffffff;
        h3 += c;
        c = h3 >> 26;
        h3 &= 0x3ffffff;
        h4 += c;
        c = h4 >> 26;
        h4 &= 0x3ffffff;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= 0x3ffffff;
        h1 += c;

        // Compute h + -p and select.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 26;
        g0 &= 0x3ffffff;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 26;
        g1 &= 0x3ffffff;
        let mut g2 = h2.wrapping_add(c);
        c = g2 >> 26;
        g2 &= 0x3ffffff;
        let mut g3 = h3.wrapping_add(c);
        c = g3 >> 26;
        g3 &= 0x3ffffff;
        let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

        if g4 >> 63 == 0 {
            h0 = g0;
            h1 = g1;
            h2 = g2;
            h3 = g3;
            h4 = g4 & 0x3ffffff;
        }

        // Serialize h and add s mod 2^128.
        let acc: u128 = (h0 as u128)
            | ((h1 as u128) << 26)
            | ((h2 as u128) << 52)
            | ((h3 as u128) << 78)
            | ((h4 as u128) << 104);
        acc.wrapping_add(self.s).to_le_bytes()
    }
}

/// Computes the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
pub fn tag(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcodec::hex;

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] =
            hex::decode("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .unwrap()
                .try_into()
                .unwrap();
        let got = tag(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex::encode(&got), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    /// Long multi-block message exercising the final reduction path.
    /// (Pinned regression value; the primary RFC 8439 §2.5.2 and §2.8.2
    /// vectors above and in `aead` validate correctness.)
    #[test]
    fn long_message_regression() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&hex::decode("36e5f6b5c5e06070f0efca96227a863e").unwrap());
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let got = tag(&key, &msg[..]);
        assert_eq!(hex::encode(&got), "f3477e7cd95417af89a6b8794c310cf0");
    }

    /// All-zero key yields an all-zero tag (r = 0 annihilates the message).
    #[test]
    fn zero_key_zero_tag() {
        assert_eq!(tag(&[0u8; 32], b"anything at all"), [0u8; 16]);
    }

    /// Splitting the message across `update` calls at any point, including
    /// inside a block and with empty pieces, does not change the tag.
    #[test]
    fn incremental_matches_one_shot() {
        let key: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11));
        let msg: Vec<u8> = (0..100u8).collect();
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 100] {
            let want = tag(&key, &msg[..len]);
            for cut_a in 0..=len {
                for cut_b in [cut_a, (cut_a + 7).min(len), len] {
                    let mut mac = Poly1305::new(&key);
                    mac.update(&msg[..cut_a]);
                    mac.update(&msg[cut_a..cut_b]);
                    mac.update(&msg[cut_b..len]);
                    assert_eq!(mac.finalize(), want, "len {len} cuts {cut_a},{cut_b}");
                }
            }
        }
    }
}
