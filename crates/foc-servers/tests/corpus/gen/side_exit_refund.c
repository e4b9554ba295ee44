// n=9223372036854775807 churn=60 sequence=2
short g0[12];
long f(long n) {
    long i = 0;
    unsigned char a0[12];
    unsigned long a1[4];
    if (g0[12] < g0[i] / 7) {
    } else {
        if (12 < g0[n]) {
            a0[-9223372036854775807 - 1] = a0[i] ^ (a0[i + 3] = a1[i]);
        }
    }
}
